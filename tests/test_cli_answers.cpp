// hecsim_cli's answers against the library.
//
// Every exhaustive query reads its answer off the energy-deadline
// frontier: the cheapest deadline-feasible point, which on an
// equal-energy plateau is the fastest configuration. These tests drive
// the binary (injected by CMake as HECSIM_CLI_PATH) and check that
//   * it exits 2 exactly when no frontier point meets the deadline;
//   * its configuration, service time and energy are those of the
//     reference frontier's best_for_deadline point;
//   * that energy is within kParetoRelEps of the plain minimum over
//     ConfigEvaluator::evaluate of every configuration;
//   * the in-memory, journaled, sharded, unpruned and scalar sweeps all
//     print the same bytes.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hec/config/enumerate.h"
#include "hec/config/evaluate.h"
#include "hec/hw/catalog.h"
#include "hec/io/table.h"
#include "hec/model/characterize.h"
#include "hec/pareto/frontier.h"
#include "hec/sweep/sweep.h"
#include "hec/workloads/workload.h"

namespace hec {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;
};

/// Runs the CLI with `args`, capturing stdout (stderr is discarded).
CliRun run_cli(const std::string& args) {
  const std::string cmd =
      std::string(HECSIM_CLI_PATH) + " " + args + " 2> /dev/null";
  CliRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed: " << cmd;
    return run;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) run.out.append(buf, n);
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << "CLI did not exit normally: " << args;
  run.exit_code = WEXITSTATUS(status);
  return run;
}

/// The text after "<label> ... : " on the first line starting with
/// `label`.
std::string field(const std::string& out, const std::string& label) {
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(": ");
    if (line.rfind(label, 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "<no " + label + " line>";
}

/// The "Recommended configuration" table rows, A9 side then K10 side:
/// nodes, cores and clock as printed; empty for an unused side.
using Rows = std::vector<std::vector<std::string>>;

Rows printed_rows(const std::string& out) {
  Rows rows;
  for (const std::string& name :
       {arm_cortex_a9().name, amd_opteron_k10().name}) {
    rows.emplace_back();
    std::istringstream in(out);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(name, 0) != 0) continue;
      std::istringstream cells(line.substr(name.size()));
      std::vector<std::string> row(3);
      cells >> row[0] >> row[1] >> row[2];
      rows.back() = row;
      break;
    }
  }
  return rows;
}

Rows expected_rows(const ClusterConfig& config) {
  Rows rows;
  for (const auto& [side, used] :
       {std::pair{config.arm, config.uses_arm()},
        std::pair{config.amd, config.uses_amd()}}) {
    rows.emplace_back();
    if (used) {
      rows.back() = {std::to_string(side.nodes), std::to_string(side.cores),
                     TablePrinter::num(side.f_ghz, 1)};
    }
  }
  return rows;
}

/// `out` without the lines that contain `needle`.
std::string without_lines(const std::string& out, const std::string& needle) {
  std::istringstream in(out);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) == std::string::npos) kept += line + "\n";
  }
  return kept;
}

/// Deadline text in ms and the seconds value the CLI derives from it.
struct Deadline {
  std::string ms_text;
  double s = 0.0;
};

Deadline deadline_at(double seconds) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", seconds * 1e3);
  return {text, std::strtod(text, nullptr) * 1e-3};
}

struct Pool {
  int arm;
  int amd;
};

class CliFrontierAnswer : public ::testing::TestWithParam<std::string> {};

TEST_P(CliFrontierAnswer, MatchesReferenceFrontierAtEveryDeadline) {
  const Workload workload = find_workload(GetParam());
  const NodeSpec arm = arm_cortex_a9();
  const NodeSpec amd = amd_opteron_k10();
  const NodeTypeModel arm_model = build_node_model(arm, workload);
  const NodeTypeModel amd_model = build_node_model(amd, workload);
  const ConfigEvaluator evaluator(arm_model, amd_model);
  const double units = workload.analysis_units;

  for (const Pool pool : {Pool{10, 10}, Pool{0, 16}, Pool{128, 0},
                          Pool{16, 2}}) {
    const EnumerationLimits limits{pool.arm, pool.amd};
    const ConfigSpaceLayout layout(arm, amd, limits);
    const EnergyDeadlineCurve curve(
        sweep_frontier_reference(arm_model, amd_model, limits, units)
            .frontier);
    std::vector<ConfigOutcome> plain;
    for (const ClusterConfig& c : enumerate_configs(arm, amd, limits)) {
      plain.push_back(evaluator.evaluate(c, units));
    }

    // Infeasible, the fastest point exactly, frontier points' own times,
    // the slowest frontier point and beyond it.
    const auto& points = curve.points();
    std::vector<double> deadlines_s = {
        0.5 * curve.min_time_s(), curve.min_time_s(),
        points[points.size() / 3].t_s, points[2 * points.size() / 3].t_s,
        points.back().t_s, 3.0 * points.back().t_s};
    for (const double d : deadlines_s) {
      const Deadline deadline = deadline_at(d);
      const std::string args = GetParam() + " " + deadline.ms_text +
                               " --max-arm " + std::to_string(pool.arm) +
                               " --max-amd " + std::to_string(pool.amd);
      SCOPED_TRACE(args);
      const CliRun run = run_cli(args);
      const std::optional<TimeEnergyPoint> pick =
          curve.best_for_deadline(deadline.s);

      double plain_min = std::numeric_limits<double>::infinity();
      for (const ConfigOutcome& o : plain) {
        if (o.t_s <= deadline.s && o.energy_j < plain_min) {
          plain_min = o.energy_j;
        }
      }
      if (!pick) {
        EXPECT_EQ(run.exit_code, 2) << run.out;
        EXPECT_EQ(plain_min, std::numeric_limits<double>::infinity());
        continue;
      }
      ASSERT_EQ(run.exit_code, 0) << run.out;
      // The frontier's answer may trade the first-found minimum for a
      // faster point of the same energy, never for more energy.
      EXPECT_LE(plain_min, pick->energy_j);
      EXPECT_GE(plain_min, pick->energy_j * (1.0 - kParetoRelEps));

      const ClusterConfig config = layout.config(pick->tag);
      const ConfigOutcome outcome = evaluator.evaluate(config, units);
      EXPECT_EQ(outcome.energy_j, pick->energy_j);
      EXPECT_EQ(printed_rows(run.out), expected_rows(config));
      EXPECT_EQ(field(run.out, "Service time"),
                TablePrinter::num(outcome.t_s * 1e3, 1) + " ms");
      EXPECT_EQ(field(run.out, "Job energy"),
                TablePrinter::num(pick->energy_j, 2) + " J (for " +
                    TablePrinter::num(units, 0) + " work units)");
      EXPECT_NE(run.out.find("\n(" + std::to_string(layout.size()) +
                             " model evaluations, method exhaustive)\n"),
                std::string::npos);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CliFrontierAnswer,
                         ::testing::Values("EP", "memcached", "x264",
                                           "blackscholes", "Julius",
                                           "RSA-2048"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(CliPlateauQuery, EverySweepPathPrintsTheFrontierAnswer) {
  // On this query a run of equal-energy A9-only configurations meets
  // the deadline; the first one in enumeration order is not the fastest,
  // so an answer read off anything but the frontier would show here.
  const std::string query = "Julius 300 --max-arm 32 --max-amd 12";
  const double deadline_s = 300.0 * 1e-3;
  const Workload workload = find_workload("Julius");
  const NodeTypeModel arm_model = build_node_model(arm_cortex_a9(), workload);
  const NodeTypeModel amd_model =
      build_node_model(amd_opteron_k10(), workload);
  const double units = workload.analysis_units;
  const EnumerationLimits limits{32, 12};
  const ConfigSpaceLayout layout(arm_model.spec(), amd_model.spec(), limits);
  const EnergyDeadlineCurve curve(
      sweep_frontier(arm_model, amd_model, limits, units).frontier);
  const auto pick = curve.best_for_deadline(deadline_s);
  ASSERT_TRUE(pick.has_value());
  const ClusterConfig fastest = layout.config(pick->tag);

  const ConfigEvaluator evaluator(arm_model, amd_model);
  std::optional<ConfigOutcome> first_found;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    const ConfigOutcome o = evaluator.evaluate(layout.config(i), units);
    if (o.t_s <= deadline_s &&
        (!first_found || o.energy_j < first_found->energy_j)) {
      first_found = o;
    }
  }
  ASSERT_TRUE(first_found.has_value());
  EXPECT_NE(expected_rows(first_found->config), expected_rows(fastest))
      << "no longer a plateau query";

  const CliRun plain = run_cli(query);
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_EQ(printed_rows(plain.out), expected_rows(fastest));

  const std::string journal =
      ::testing::TempDir() + "cli_answers_plateau.jsonl";
  std::remove(journal.c_str());
  for (const std::string& variant :
       {" --journal " + journal, std::string(" --no-prune"),
        std::string(" --no-simd"), std::string(" --shards 2")}) {
    SCOPED_TRACE(variant);
    const CliRun run = run_cli(query + variant);
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(without_lines(run.out, "(sharded sweep:"), plain.out);
  }

  // A budget that caps nothing answers like the default query, apart
  // from naming the budget.
  const CliRun budget = run_cli(query + " --budget 1e9");
  ASSERT_EQ(budget.exit_code, 0);
  std::string expected = plain.out;
  expected.insert(expected.find('\n', expected.find("Peak power")),
                  " (budget 1000000000 W)");
  EXPECT_EQ(budget.out, expected);
}

}  // namespace
}  // namespace hec
