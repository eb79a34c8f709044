// The benchmark's own tests: the seeded generator is deterministic, the
// decoders agree with the library's enumerations, and every output check
// fails the operation on a dropped frontier point, a 1-ulp energy change
// and a wrong CLI answer.
//
//   perfbench_selftest [HECSIM_CLI]
//
// With a hecsim_cli path the CLI check is also run against real answers.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "checks.h"
#include "hec/config/enumerate.h"
#include "hec/config/multi_space.h"
#include "hec/model/characterize.h"
#include "hec/sweep/sweep.h"
#include "hec/workloads/workload.h"
#include "ops.h"

namespace {

using perfbench::Frontier;
using perfbench::Kind;
using perfbench::NodeType;
using perfbench::Op;

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::string op_list(Kind kind, std::uint64_t seed, std::size_t count) {
  std::string text;
  for (const Op& op : perfbench::make_ops(kind, seed, count)) {
    text += perfbench::describe(op) + "\n";
  }
  return text;
}

void test_generator() {
  for (const Kind kind : {Kind::kCliQuery, Kind::kFrontier2, Kind::kFrontier3,
                          Kind::kSharded}) {
    const std::string name = "kind " + std::to_string(static_cast<int>(kind));
    expect(op_list(kind, 7, 500) == op_list(kind, 7, 500),
           name + ": same seed, same operation list");
    expect(op_list(kind, 7, 500) != op_list(kind, 8, 500),
           name + ": another seed, another list");
    // A prefix is stable: asking for more operations never reshuffles.
    const std::string longer = op_list(kind, 7, 600);
    expect(longer.compare(0, op_list(kind, 7, 500).size(), op_list(kind, 7, 500)) == 0,
           name + ": lists are prefixes of longer lists");

    // Rows hold each program once; cli rows hold every pool, and the 10+10
    // space once per program.
    const std::vector<Op> ops = perfbench::make_ops(kind, 11, 420);
    std::size_t row_start = 0;
    std::size_t reference = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].reference) ++reference;
      if (!ops[i].row_end) continue;
      std::multiset<int> programs;
      std::set<std::vector<int>> pools;
      for (std::size_t j = row_start; j <= i; ++j) {
        if (!ops[j].reference) programs.insert(ops[j].program);
        pools.insert(ops[j].pools);
      }
      if (kind == Kind::kCliQuery) {
        std::set<int> ten_ten;
        for (std::size_t j = row_start; j <= i; ++j) {
          if (ops[j].pools == std::vector<int>{10, 10}) ten_ten.insert(ops[j].program);
        }
        expect(pools.size() == 13 && i - row_start + 1 == 18 && ten_ten.size() == 6,
               name + ": a cli row covers the 13 pools, 10+10 for every program");
      } else {
        expect(programs.size() == 6 && std::set<int>(programs.begin(), programs.end()).size() == 6,
               name + ": a row holds each program once");
      }
      row_start = i + 1;
    }
    if (kind == Kind::kFrontier2 || kind == Kind::kFrontier3) {
      expect(reference == ops.size() / 7, name + ": one reference operation per row");
    }
    for (const Op& op : ops) {
      if (kind == Kind::kCliQuery) {
        expect(perfbench::deadline_seconds(op.deadline_ms) > 0.0,
               name + ": deadlines are positive");
      }
    }
  }
  const auto setup = perfbench::make_setup_queries(3, 12);
  std::multiset<int> programs;
  for (const Op& op : setup) programs.insert(op.program);
  expect(setup.size() == 12 && programs.count(0) == 2 && programs.count(5) == 2,
         "set-up queries: every program twice on 10+10");
}

void test_decoders() {
  const hec::NodeSpec& a9 = perfbench::spec_of(NodeType::kA9);
  const hec::NodeSpec& a15 = perfbench::spec_of(NodeType::kA15);
  const hec::NodeSpec& k10 = perfbench::spec_of(NodeType::kK10);
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{{3, 2}, {0, 4}, {5, 0}}) {
    const auto configs = hec::enumerate_configs(a9, k10, {a, b});
    bool same = true;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const hec::ClusterConfig c = perfbench::two_type_config_at(a9, k10, a, b, i);
      same = same && c.arm.nodes == configs[i].arm.nodes &&
             c.amd.nodes == configs[i].amd.nodes &&
             (c.arm.nodes == 0 || (c.arm.cores == configs[i].arm.cores &&
                                   c.arm.f_ghz == configs[i].arm.f_ghz)) &&
             (c.amd.nodes == 0 || (c.amd.cores == configs[i].amd.cores &&
                                   c.amd.f_ghz == configs[i].amd.f_ghz));
    }
    Op op;
    op.pools = {a, b};
    expect(same && perfbench::config_count(Kind::kFrontier2, op) == configs.size(),
           "two-type decode and count match enumerate_configs");
  }
  const std::vector<hec::NodeSpec> specs = {a9, a15, k10};
  const std::vector<int> limits = {2, 1, 2};
  const auto multi = hec::enumerate_multi(specs, limits);
  bool same = true;
  for (std::size_t i = 0; i < multi.size(); ++i) {
    const hec::MultiClusterConfig c = perfbench::multi_config_at(specs, limits, i);
    for (std::size_t t = 0; t < 3; ++t) {
      const hec::NodeConfig& x = c.per_type[t];
      const hec::NodeConfig& y = multi[i].per_type[t];
      same = same && x.nodes == y.nodes &&
             (x.nodes == 0 || (x.cores == y.cores && x.f_ghz == y.f_ghz));
    }
  }
  Op op;
  op.pools = limits;
  expect(same && perfbench::config_count(Kind::kFrontier3, op) == multi.size(),
         "three-type decode and count match enumerate_multi");
}

/// The checks a frontier operation goes through must fail on each defect.
void test_frontier_checks() {
  const hec::Workload ep = hec::workload_ep();
  const hec::NodeTypeModel a9 = hec::build_node_model(perfbench::spec_of(NodeType::kA9), ep);
  const hec::NodeTypeModel a15 = hec::build_node_model(perfbench::spec_of(NodeType::kA15), ep);
  const hec::NodeTypeModel k10 = hec::build_node_model(perfbench::spec_of(NodeType::kK10), ep);
  const double w = ep.analysis_units;

  struct Space {
    std::string name;
    Frontier engine;
    Frontier reference;
    perfbench::SpaceEvaluator evaluator;
  };
  std::vector<Space> spaces;
  spaces.push_back({"two-type 12x10",
                    hec::sweep_frontier(a9, k10, {12, 10}, w).frontier,
                    hec::sweep_frontier_reference(a9, k10, {12, 10}, w).frontier,
                    perfbench::SpaceEvaluator({&a9, &k10}, {12, 10}, w)});
  const std::vector<int> limits = {3, 2, 3};
  spaces.push_back({"three-type 3x2x3",
                    hec::sweep_multi_frontier({&a9, &a15, &k10}, limits, w).frontier,
                    hec::sweep_multi_frontier_reference({&a9, &a15, &k10}, limits, w).frontier,
                    perfbench::SpaceEvaluator({&a9, &a15, &k10}, limits, w)});

  for (const Space& s : spaces) {
    expect(s.engine.size() >= 3, s.name + ": frontier has points to perturb");
    expect(perfbench::check_frontier(s.engine, s.evaluator, 1, &s.reference).empty(),
           s.name + ": the engine's frontier passes every check");
    expect(perfbench::check_frontier(s.engine, s.evaluator, 1, nullptr).empty(),
           s.name + ": and the checks without a reference");

    // A 1-ulp energy change fails the bit-exact re-evaluation, with or
    // without a reference.
    for (std::size_t i = 0; i < s.engine.size(); ++i) {
      Frontier bent = s.engine;
      bent[i].energy_j = std::nextafter(bent[i].energy_j, INFINITY);
      expect(!perfbench::check_frontier(bent, s.evaluator, 1, nullptr).empty(),
             s.name + ": 1-ulp energy change at point " + std::to_string(i));
    }
    // A dropped point fails reference-sized operations; on the others the
    // merge check's knob neighbours of the remaining points bring it back.
    std::size_t caught_without_reference = 0;
    for (std::size_t i = 0; i < s.engine.size(); ++i) {
      Frontier dropped = s.engine;
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
      expect(!perfbench::check_frontier(dropped, s.evaluator, 1, &s.reference).empty(),
             s.name + ": dropped point " + std::to_string(i) + " vs the reference");
      if (!perfbench::check_frontier(dropped, s.evaluator, 1, nullptr).empty()) {
        ++caught_without_reference;
      }
    }
    std::printf("%s: %zu of %zu dropped points caught without a reference\n",
                s.name.c_str(), caught_without_reference, s.engine.size());
    expect(caught_without_reference == s.engine.size(),
           s.name + ": the merge sample catches every dropped point on its own");
    // A point that is not in the space at all.
    Frontier foreign = s.engine;
    foreign.back().tag = s.evaluator.size();
    expect(!perfbench::check_frontier(foreign, s.evaluator, 1, nullptr).empty(),
           s.name + ": a tag outside the space");
  }
}

std::string answer(double service_ms, double energy_j) {
  char text[256];
  std::snprintf(text, sizeof text,
                "Recommended configuration:\n...\n\nService time : %.1f ms\n"
                "Job energy   : %.2f J (for 50000000 work units)\nPeak power   : 1.0 W\n",
                service_ms, energy_j);
  return text;
}

struct Child {
  int code = -1;
  std::string out;
};

Child run(const std::vector<std::string>& argv) {
  int out[2];
  if (::pipe(out) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out[1], 1);
    ::close(out[0]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  Child child;
  char buf[4096];
  for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;) {
    child.out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return child;
}

void test_cli_checks(const char* cli) {
  const hec::Workload ep = hec::workload_ep();
  const hec::NodeTypeModel a9 = hec::build_node_model(perfbench::spec_of(NodeType::kA9), ep);
  const hec::NodeTypeModel k10 = hec::build_node_model(perfbench::spec_of(NodeType::kK10), ep);
  const Frontier reference =
      hec::sweep_frontier_reference(a9, k10, {10, 10}, ep.analysis_units).frontier;
  const hec::TimeEnergyPoint& mid = reference[reference.size() / 2];
  char deadline[32];
  std::snprintf(deadline, sizeof deadline, "%.3f", mid.t_s * 1e3 + 0.001);
  // The cheapest point within the deadline is `mid` (time-sorted frontier).
  const double e = mid.energy_j;
  const double t = mid.t_s * 1e3;
  expect(perfbench::check_cli_answer(0, answer(t, e), reference, deadline).empty(),
         "cli: the right answer passes");
  expect(!perfbench::check_cli_answer(0, answer(t, e + 0.01), reference, deadline).empty(),
         "cli: an energy 0.01 J off fails");
  expect(!perfbench::check_cli_answer(0, answer(t, reference.back().energy_j), reference,
                                      deadline)
              .empty(),
         "cli: the global minimum energy past the deadline fails");
  expect(!perfbench::check_cli_answer(2, "No configuration of up to 10 ARM\n", reference,
                                      deadline)
              .empty(),
         "cli: a wrong 'infeasible' fails");
  expect(!perfbench::check_cli_answer(0, answer(t + 50.0, e), reference, deadline).empty(),
         "cli: a service time past the deadline fails");
  expect(!perfbench::check_cli_answer(70, "", reference, deadline).empty(),
         "cli: a crash fails");
  const std::string too_tight = "0.001";
  expect(perfbench::check_cli_answer(2, "No configuration of up to 10 ARM\n", reference,
                                     too_tight)
             .empty(),
         "cli: exit 2 is the right answer to an infeasible deadline");
  expect(!perfbench::check_cli_answer(0, answer(t, e), reference, too_tight).empty(),
         "cli: an answer to an infeasible deadline fails");

  if (cli == nullptr) return;
  for (const std::string& d : {std::string(deadline), too_tight, std::string("1000")}) {
    const Child c = run({cli, "EP", d, "--max-arm", "10", "--max-amd", "10"});
    expect(perfbench::check_cli_answer(c.code, c.out, reference, d).empty(),
           "cli: hecsim_cli's own answer passes at deadline " + d);
    if (c.code == 0) {
      // Corrupt the last digit of the printed energy.
      std::string wrong = c.out;
      const std::size_t at = wrong.find(" J (for");
      wrong[at - 1] = wrong[at - 1] == '9' ? '0' : static_cast<char>(wrong[at - 1] + 1);
      expect(!perfbench::check_cli_answer(c.code, wrong, reference, d).empty(),
             "cli: hecsim_cli's answer with a changed energy digit fails at " + d);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_generator();
  test_decoders();
  test_frontier_checks();
  test_cli_checks(argc > 1 ? argv[1] : nullptr);
  std::printf("perfbench self-test: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
