// Fault sweep: how perturbations move the optimal replication factor.
//
// Replays the paper's two large panels (Fig 2b: Hopper, p = 24,576,
// n = 196,608; Fig 2d: Intrepid, p = 32,768, n = 262,144) under a set of
// fault scenarios — compute stragglers, degraded links, lossy links with
// retry/backoff, and all three combined — and sweeps the replication
// factor c in each. The ideal (fault-free) series is the Fig 2 baseline;
// the degraded series show where the c that minimizes the critical path
// moves when the machine misbehaves (see EXPERIMENTS.md).
//
// With a model attached the engines take the per-step path (per-rank
// perturbation streams break the bulk shortcut), so each data point walks
// the full p x p/c^2 schedule. The sweep starts at c = 4 to keep the
// binary's runtime reasonable: at c < 4 the per-step path costs hundreds
// of millions of rank-steps per point, and both panels' optima (paper:
// c = 16 on 2b) sit well above it.
//
//   ./bench/fault_sweep --out=BENCH_faults.json --fault-seed=2013
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/build_flavor.hpp"
#include "bench/common.hpp"
#include "obs/export.hpp"
#include "support/cli.hpp"
#include "vmpi/fault.hpp"

namespace {

using namespace canb;
using namespace canb::bench;

struct Scenario {
  std::string name;
  vmpi::FaultConfig fault;  ///< ignored when `ideal`
  bool ideal = false;
};

std::vector<Scenario> make_scenarios(std::uint64_t seed) {
  std::vector<Scenario> out;
  out.push_back({"ideal", {}, true});
  {
    Scenario s{"stragglers", {}, false};
    s.fault.seed = seed;
    s.fault.jitter = 0.02;
    s.fault.straggler_rate = 0.05;
    s.fault.straggler_factor = 4.0;
    out.push_back(s);
  }
  {
    Scenario s{"degraded-links", {}, false};
    s.fault.seed = seed;
    s.fault.link_degrade_rate = 0.05;
    s.fault.link_degrade_factor = 4.0;
    out.push_back(s);
  }
  {
    Scenario s{"lossy", {}, false};
    s.fault.seed = seed;
    s.fault.drop_rate = 0.02;
    out.push_back(s);
  }
  {
    Scenario s{"combined", {}, false};
    s.fault.seed = seed;
    s.fault.jitter = 0.02;
    s.fault.straggler_rate = 0.05;
    s.fault.link_degrade_rate = 0.05;
    s.fault.drop_rate = 0.02;
    out.push_back(s);
  }
  return out;
}

struct DataPoint {
  std::string panel;
  std::string machine;
  int p = 0;
  std::uint64_t n = 0;
  std::string scenario;
  int c = 0;
  double total = 0.0;  ///< critical-path seconds per step
  double comm = 0.0;   ///< communication share of the critical path
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
};

/// One sweep point. Ideal runs take the bulk fast path; faulted runs attach
/// a fresh model (fresh streams, so points are independent of sweep order)
/// and fall back to the per-step schedule.
DataPoint run_point(const std::string& panel, const machine::MachineModel& m, int p,
                    std::uint64_t n, int c, const Scenario& sc, int steps) {
  core::PhantomPolicy policy({/*reassign_fraction=*/0.0, /*bulk=*/true});
  core::CaAllPairs<core::PhantomPolicy> engine({p, c, m}, policy, even_counts(n, p / c));
  std::optional<vmpi::PerturbationModel> model;
  if (!sc.ideal) {
    model.emplace(sc.fault, p);
    engine.comm().set_fault(&*model);
  }
  engine.run(steps);
  const auto rep = sim::summarize(engine.comm(), steps, "c=" + std::to_string(c), c);
  DataPoint d;
  d.panel = panel;
  d.machine = m.name;
  d.p = p;
  d.n = n;
  d.scenario = sc.name;
  d.c = c;
  d.total = rep.total();
  d.comm = rep.communication();
  d.retries = engine.comm().ledger().critical_retries();
  d.timeouts = engine.comm().ledger().critical_timeouts();
  return d;
}

void run_panel(const std::string& panel, const machine::MachineModel& m, int p,
               std::uint64_t n, int c_min, int c_max,
               const std::vector<Scenario>& scenarios, int steps,
               std::vector<DataPoint>& out) {
  print_figure_header(panel + " + faults", m.name + ", " + std::to_string(p) + " cores, " +
                                               std::to_string(n) + " particles");
  std::vector<int> cs;
  for (int c : valid_all_pairs_cs(p, c_max)) {
    if (c >= c_min) cs.push_back(c);
  }

  std::vector<ColumnSpec> cols{{"scenario", 15}};
  for (int c : cs) cols.push_back({"c=" + std::to_string(c), 11, 4});
  cols.push_back({"best", 7});
  Table table(cols);

  for (const auto& sc : scenarios) {
    std::vector<Cell> row;
    row.reserve(cols.size());
    row.emplace_back(sc.name);
    int best_c = 0;
    double best_total = 0.0;
    for (int c : cs) {
      auto d = run_point(panel, m, p, n, c, sc, steps);
      row.emplace_back(d.total);
      if (best_c == 0 || d.total < best_total) {
        best_total = d.total;
        best_c = c;
      }
      out.push_back(std::move(d));
    }
    row.emplace_back("c=" + std::to_string(best_c));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

void write_json(const std::string& path, std::uint64_t seed, int steps,
                const std::vector<DataPoint>& points) {
  obs::RunManifest manifest;
  manifest.machine = "hopper,intrepid";  // per-row `machine` names the panel's model
  bench::record_build_flavor(manifest);
  manifest.set("fault_seed", seed).set("steps", steps);
  obs::BenchJsonWriter out(path, "fault_sweep", "seconds_per_step", manifest);
  for (const auto& d : points) {
    out.row([&](obs::JsonWriter& w) {
      w.kv("panel", d.panel)
          .kv("machine", d.machine)
          .kv("p", d.p)
          .kv("n", d.n)
          .kv("scenario", d.scenario)
          .kv("c", d.c)
          .kv("total", d.total)
          .kv("comm", d.comm)
          .kv("retries", d.retries)
          .kv("timeouts", d.timeouts);
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"out", "fault-seed", "steps", "c-min"});
  const std::string out_path = args.get("out", "BENCH_faults.json");
  const auto seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 2013));
  const int steps = static_cast<int>(args.get_int("steps", 1));
  const int c_min = static_cast<int>(args.get_int("c-min", 4));

  std::cout << "CA-N-Body — fault sweep: optimal replication factor under degraded machines\n"
            << "fault seed " << seed << ", " << steps << " step(s) per point\n";

  const auto scenarios = make_scenarios(seed);
  std::vector<DataPoint> points;
  run_panel("2b", machine::hopper(), 24576, 196608, c_min, 64, scenarios, steps, points);
  run_panel("2d", machine::intrepid(), 32768, 262144, c_min, 128, scenarios, steps, points);

  write_json(out_path, seed, steps, points);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
