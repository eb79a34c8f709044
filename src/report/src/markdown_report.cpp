#include "hec/report/markdown_report.h"

#include <algorithm>
#include <sstream>

#include "hec/config/enumerate.h"
#include "hec/config/evaluate.h"
#include "hec/hw/catalog.h"
#include "hec/io/table.h"
#include "hec/model/bottleneck.h"
#include "hec/pareto/sweet_region.h"
#include "hec/sweep/sweep.h"
#include "hec/util/expect.h"

namespace hec {

namespace {

std::string fmt(double v, int precision = 2) {
  return TablePrinter::num(v, precision);
}

std::string describe_config(const ClusterConfig& c) {
  std::ostringstream out;
  if (c.uses_arm()) {
    out << c.arm.nodes << " ARM (" << c.arm.cores << "c @ " << c.arm.f_ghz
        << " GHz)";
  }
  if (c.uses_amd()) {
    if (c.uses_arm()) out << " + ";
    out << c.amd.nodes << " AMD (" << c.amd.cores << "c @ " << c.amd.f_ghz
        << " GHz)";
  }
  return out.str();
}

void characterisation_table(std::ostringstream& md, const NodeSpec& spec,
                            const NodeTypeModel& model,
                            double probe_units) {
  md << "### " << spec.name << "\n\n";
  TablePrinter table({"Input", "Value"});
  table.set_alignment({Align::kLeft, Align::kLeft});
  const WorkloadInputs& in = model.workload();
  table.add_row({"Instructions per work unit (IPs)",
                 fmt(in.inst_per_unit, 1)});
  table.add_row({"Work cycles per instruction (WPI)", fmt(in.wpi, 3)});
  table.add_row({"Non-memory stall CPI (SPIcore)", fmt(in.spi_core, 3)});
  table.add_row({"CPU utilisation at baseline (UCPU)", fmt(in.ucpu, 3)});
  const LinearFit& fit = in.spi_mem_by_cores.back();
  table.add_row({"SPImem(f) at max cores",
                 fmt(fit.intercept, 3) + " + " + fmt(fit.slope, 3) +
                     "*f  (r^2 = " + fmt(fit.r_squared, 3) + ")"});
  table.add_row({"Idle power [W]", fmt(model.power().idle_w, 1)});
  const Prediction full = model.predict(
      probe_units, NodeConfig{1, spec.cores, spec.pstates.max_ghz()});
  table.add_row(
      {"Single-node service time (full tilt) [ms]", fmt(full.t_s * 1e3, 1)});
  table.add_row({"Classification", explain_bottleneck(full)});
  table.print_markdown(md);
  md << "\n";
}

}  // namespace

std::string markdown_report(const Workload& workload,
                            const NodeTypeModel& arm_model,
                            const NodeTypeModel& amd_model,
                            const ReportOptions& options) {
  HEC_EXPECTS(options.max_arm_nodes >= 0 && options.max_amd_nodes >= 0);
  HEC_EXPECTS(options.max_arm_nodes + options.max_amd_nodes >= 1);
  HEC_EXPECTS(options.usd_per_kwh >= 0.0);
  for (double f : options.deadline_factors) {
    HEC_EXPECTS(f >= 1.0);
  }
  const double units = options.work_units > 0.0 ? options.work_units
                                                : workload.analysis_units;
  const NodeSpec& arm = arm_model.spec();
  const NodeSpec& amd = amd_model.spec();

  // Frontier tags are enumeration indices: the layout decodes them, and
  // only the recommended points are evaluated again for their outcome.
  const EnumerationLimits limits{options.max_arm_nodes,
                                 options.max_amd_nodes};
  const ConfigSpaceLayout layout(arm, amd, limits);
  const SweepResult sweep =
      sweep_frontier(arm_model, amd_model, limits, units);
  const std::vector<TimeEnergyPoint>& frontier = sweep.frontier;
  auto hetero = [&](std::size_t tag) {
    return layout.config(tag).heterogeneous();
  };
  const auto sweet = find_sweet_region(frontier, hetero);
  const auto overlap = find_overlap_region(frontier, hetero);

  std::ostringstream md;
  md << "# " << workload.name << " — heterogeneous cluster analysis\n\n"
     << "Job: " << fmt(units, 0) << " " << workload.unit << " ("
     << workload.domain << "); pool: up to " << options.max_arm_nodes
     << " " << arm.name << " + " << options.max_amd_nodes << " "
     << amd.name << " nodes; " << sweep.stats.configs
     << " configurations evaluated.\n\n";

  md << "## Node characterisation (trace-driven model inputs)\n\n";
  const double probe = std::min(units, 100000.0);
  characterisation_table(md, arm, arm_model, probe);
  characterisation_table(md, amd, amd_model, probe);

  md << "## Energy-deadline Pareto frontier\n\n";
  {
    TablePrinter table({"Deadline [ms]", "Energy [J]", "Configuration"});
    table.set_alignment({Align::kRight, Align::kRight, Align::kLeft});
    for (const auto& p : frontier) {
      table.add_row({fmt(p.t_s * 1e3, 1), fmt(p.energy_j, 2),
                     describe_config(layout.config(p.tag))});
    }
    table.print_markdown(md);
  }
  md << "\n";
  if (sweet) {
    md << "**Sweet region**: " << sweet->size()
       << " heterogeneous points; energy falls linearly from "
       << fmt(sweet->energy_upper_j, 2) << " J to "
       << fmt(sweet->energy_lower_j, 2) << " J (fit r^2 = "
       << fmt(sweet->energy_vs_time.r_squared, 3) << ").\n\n";
  } else {
    md << "**Sweet region**: absent for this pool.\n\n";
  }
  md << "**Overlap region**: " << overlap.size()
     << " homogeneous trailing point(s).\n\n";

  md << "## Recommendations\n\n";
  {
    TablePrinter table({"Deadline [ms]", "Configuration", "Energy [J]",
                        "Cost per 1M jobs [USD]", "Bottleneck"});
    table.set_alignment({Align::kRight, Align::kLeft, Align::kRight,
                         Align::kRight, Align::kLeft});
    const ConfigEvaluator evaluator(arm_model, amd_model);
    const EnergyDeadlineCurve curve(frontier);
    for (double factor : options.deadline_factors) {
      const double deadline = curve.min_time_s() * factor;
      const auto best = curve.best_for_deadline(deadline);
      if (!best) continue;
      const ConfigOutcome o =
          evaluator.evaluate(layout.config(best->tag), units);
      const Prediction detail =
          o.units_amd > o.units_arm
              ? amd_model.predict(std::max(o.units_amd, 1.0), o.config.amd)
              : arm_model.predict(std::max(o.units_arm, 1.0), o.config.arm);
      // 1e6 jobs at energy_j joules each -> kWh -> USD.
      const double cost_usd =
          o.energy_j * 1e6 / 3.6e6 * options.usd_per_kwh;
      table.add_row({fmt(deadline * 1e3, 1), describe_config(o.config),
                     fmt(o.energy_j, 2), fmt(cost_usd, 2),
                     explain_bottleneck(detail)});
    }
    table.print_markdown(md);
  }
  md << "\nGenerated by hecsim (mix-and-match heterogeneous cluster "
        "model).\n";
  return md.str();
}

}  // namespace hec
