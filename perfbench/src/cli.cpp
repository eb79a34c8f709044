// cli_query: hecsim_cli deadline queries as child processes, end to end
// and traced (the CLI's own --profile-out spans split each query).
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "hec/bench/json.h"
#include "spans.h"
#include "stats.h"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct ChildRun {
  int exit_code = -1;
  std::string out;
  std::string err;
  double wall_s = 0.0;
  double rss_mb = 0.0;
};

std::string drain(int fd) {
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return text;
}

/// Runs argv in `cwd` with TMPDIR=`tmpdir`, timing fork to reap. stdout
/// and stderr are captured; rss_mb is the child's own peak resident set.
ChildRun spawn(const std::vector<std::string>& argv, const std::string& cwd,
               const std::string& tmpdir) {
  std::vector<std::string> env_text;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TMPDIR=", 7) != 0) env_text.emplace_back(*e);
  }
  env_text.push_back("TMPDIR=" + tmpdir);
  std::vector<char*> envp;
  for (std::string& s : env_text) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (std::string& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  int out[2];
  int err[2];
  if (::pipe2(out, O_CLOEXEC) != 0 || ::pipe2(err, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  ChildRun run;
  const double start = now_s();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    if (::chdir(cwd.c_str()) != 0 || ::dup2(out[1], 1) < 0 || ::dup2(err[1], 2) < 0) {
      ::_exit(127);
    }
    ::execve(argp[0], argp.data(), envp.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(err[1]);
  run.out = drain(out[0]);
  run.err = drain(err[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = now_s() - start;
  run.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return run;
}

std::vector<std::string> query_argv(const RunContext& ctx, const Op& op) {
  return {ctx.cli_path,
          kPrograms[static_cast<std::size_t>(op.program)],
          op.deadline_ms,
          "--max-arm",
          std::to_string(op.pools[0]),
          "--max-amd",
          std::to_string(op.pools[1])};
}

Verdict check_query(const RunContext& ctx, const Op& op, const ChildRun& run) {
  Verdict verdict;
  try {
    const Frontier& reference =
        ctx.oracle->ask(Oracle::Query::kTwoReference, op.program, op.pools);
    verdict = check_cli_answer(run.exit_code, run.out, reference, op.deadline_ms);
  } catch (const std::exception& e) {
    verdict = std::string("oracle: ") + e.what();
  }
  if (!verdict.empty() && !run.err.empty()) {
    verdict += " [stderr: " + run.err.substr(0, run.err.find('\n')) + "]";
  }
  return verdict;
}

struct Dirs {
  std::string cwd;
  std::string tmp;
};

Dirs fresh_dirs(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path + "/tmp");
  return {path, path + "/tmp"};
}

/// Total microseconds of a top-level span of a hec-profile/v1 document.
double profile_span_us(const hec::bench::json::Value& profile, const char* name) {
  const hec::bench::json::Value* tree = profile.find("tree");
  if (tree == nullptr) return 0.0;
  const hec::bench::json::Value* span = tree->find(name);
  if (span == nullptr) return 0.0;
  const hec::bench::json::Value* total = span->find("total_us");
  return total != nullptr ? total->as_number() : 0.0;
}

}  // namespace

RunResult run_cli_query(const RunContext& ctx) {
  RunResult result;
  double peak_rss = 0.0;

  // Set-up: a first query on 10+10 in a fresh working directory and
  // TMPDIR, left out of the percentiles. One runs before the loop and one
  // after every row, so setup_s (their median) samples the whole run.
  const std::vector<Op> setup_ops = make_setup_queries(ctx.seed, 1000);
  std::vector<double> setup_s;
  const auto setup_query = [&] {
    const Op& op = setup_ops[setup_s.size() % setup_ops.size()];
    const Dirs fresh = fresh_dirs(ctx.work_dir + "/setup-" + std::to_string(op.index));
    const ChildRun run = spawn(query_argv(ctx, op), fresh.cwd, fresh.tmp);
    setup_s.push_back(run.wall_s);
    peak_rss = std::max(peak_rss, run.rss_mb);
    result.record(op, check_query(ctx, op, run));
    fs::remove_all(fresh.cwd);
  };
  setup_query();

  const Dirs dirs = fresh_dirs(ctx.work_dir + "/queries");
  const std::vector<Op> ops = make_ops(Kind::kCliQuery, ctx.seed, 20000);
  std::vector<double> op_s;
  double op_total = 0.0;
  double configs = 0.0;
  const double loop_start = now_s();
  for (const Op& op : ops) {
    if (now_s() - loop_start > kLoopWallCapS) break;
    const ChildRun run = spawn(query_argv(ctx, op), dirs.cwd, dirs.tmp);
    op_s.push_back(run.wall_s);
    op_total += run.wall_s;
    configs += static_cast<double>(config_count(Kind::kCliQuery, op));
    peak_rss = std::max(peak_rss, run.rss_mb);
    result.record(op, check_query(ctx, op, run));
    if (loop_done(ctx, op, op_total, op_s.size())) break;
    if (op.row_end) setup_query();
  }
  add_end_to_end(result, *ctx.workload, median(setup_s), op_s, configs, peak_rss);
  return result;
}

void trace_cli(const RunContext& ctx, const std::vector<Op>& ops, SpanLog& log,
               RunResult& result) {
  const Dirs dirs = fresh_dirs(ctx.work_dir + "/traced");

  // Process floor: a query-free invocation.
  std::vector<double> floor_s;
  for (int i = 0; i < 21; ++i) {
    log.span(0, "tools.version", [&] {
      floor_s.push_back(spawn({ctx.cli_path, "--version"}, dirs.cwd, dirs.tmp).wall_s);
    });
  }
  const double floor_ms = median(floor_s) * 1e3;

  // Each query runs untraced, then with --profile-out; both answers are
  // checked.
  const std::string profile_path = dirs.cwd + "/profile.json";
  std::vector<double> characterize_ms, evaluate_ms, unattributed_ms;
  double evaluate_total_ms = 0.0;
  double configs = 0.0;
  double untraced_total = 0.0;
  double traced_total = 0.0;
  for (const Op& op : ops) {
    ChildRun plain;
    log.span(op.index, "cli.query",
             [&] { plain = spawn(query_argv(ctx, op), dirs.cwd, dirs.tmp); });
    result.record(op, check_query(ctx, op, plain));
    std::vector<std::string> argv = query_argv(ctx, op);
    argv.push_back("--profile-out");
    argv.push_back(profile_path);
    ChildRun traced;
    log.span(op.index, "cli.query_profiled",
             [&] { traced = spawn(argv, dirs.cwd, dirs.tmp); });
    Verdict verdict = check_query(ctx, op, traced);
    std::ifstream in(profile_path);
    std::stringstream text;
    text << in.rdbuf();
    double characterize = 0.0;
    double evaluate = 0.0;
    std::string parse_error;
    if (const auto profile = hec::bench::json::Value::parse(text.str(), &parse_error)) {
      characterize = profile_span_us(*profile, "cli.characterize") * 1e-3;
      evaluate = profile_span_us(*profile, "cli.evaluate") * 1e-3;
    } else if (verdict.empty()) {
      verdict = "profile: " + parse_error;
    }
    if (verdict.empty() && (characterize <= 0.0 || evaluate <= 0.0)) {
      verdict = "profile lacks cli.characterize / cli.evaluate spans";
    }
    result.record(op, verdict);
    fs::remove(profile_path);
    characterize_ms.push_back(characterize / 2.0);  // two models per query
    evaluate_ms.push_back(evaluate);
    evaluate_total_ms += evaluate;
    configs += static_cast<double>(config_count(Kind::kCliQuery, op));
    // cli.pareto (kept points' frontier, built only when profiling) is
    // left out of the attribution and shows in the overhead instead.
    unattributed_ms.push_back(plain.wall_s * 1e3 - characterize - evaluate - floor_ms);
    untraced_total += plain.wall_s;
    traced_total += traced.wall_s;
  }
  const double n = static_cast<double>(ops.size());
  result.add("tools.exec_floor_ms", floor_ms, "ms");
  result.add("tools.unattributed_ms", median(unattributed_ms), "ms");
  result.add("model.characterize_ms", median(characterize_ms), "ms");
  result.add("model.models", 2.0, "count");
  result.add("config.evaluate_ms", median(evaluate_ms), "ms");
  result.add("config.evaluate_ns_per_config", evaluate_total_ms * 1e6 / configs, "ns");
  result.add("obs.trace_overhead_frac", traced_total / untraced_total - 1.0, "fraction");
  result.add("obs.traced_ms", traced_total * 1e3 / n, "ms");
  result.add("obs.untraced_ms", untraced_total * 1e3 / n, "ms");
}

}  // namespace perfbench
