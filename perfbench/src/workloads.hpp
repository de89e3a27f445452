// The benchmark's workloads. Each fixes the physical problem (method, n, p,
// c, cutoff, distribution, machine, dt, thread count and process groups);
// every host-execution choice (engine, scheduler, data plane, SIMD
// dispatch, tile, tune, exec mode) stays at the Simulation::Config{}
// default, so a change of default is measured as users see it. Why each
// workload exists is recorded in perfbench/README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "particles/kernels.hpp"
#include "sim/simulation.hpp"
#include "vmpi/transport.hpp"

namespace perfbench {

using Kernel = canb::particles::InverseSquareRepulsion;
using Sim = canb::sim::Simulation<Kernel>;

struct Workload {
  const char* name;
  canb::sim::Method method;
  const char* distribution;  ///< "uniform" or "plummer"
  int n;
  int p;
  int c;
  double cutoff;   ///< 0 = all-pairs
  int threads;     ///< host pool size per process (1 = no pool)
  int groups;      ///< socket-mesh process groups (1 = no transport)
  bool live_plane; ///< telemetry at metrics level, flight recorder, serve_port 0
};

inline constexpr Workload kWorkloads[] = {
    {"allpairs_sweep", canb::sim::Method::CaAllPairs, "uniform", 2048, 16, 2, 0.0, 1, 1, false},
    {"cutoff_clustered", canb::sim::Method::CaCutoff, "plummer", 4096, 64, 2, 0.1, 2, 1, false},
    {"replicate_deep", canb::sim::Method::CaAllPairs, "uniform", 512, 64, 8, 0.0, 1, 1, false},
    {"mesh_live", canb::sim::Method::CaCutoff, "uniform", 8192, 64, 2, 0.1, 1, 2, true},
};

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// The reference configuration of the correctness gate: the same physical
/// problem on one thread, with no transport and no live plane.
inline Workload reference_of(const Workload& w) {
  Workload r = w;
  r.threads = 1;
  r.groups = 1;
  r.live_plane = false;
  return r;
}

inline bool is_reference(const Workload& w) {
  return w.threads == 1 && w.groups == 1 && !w.live_plane;
}

/// The particles the program receives: generated from the seed alone, with
/// the initial speeds examples/run_simulation uses.
inline canb::particles::Block make_particles(const Workload& w, const canb::particles::Box& box,
                                             std::uint64_t seed) {
  if (std::string_view(w.distribution) == "plummer")
    return canb::particles::init_plummer(w.n, box, 0.1, seed, 0.02);
  return canb::particles::init_uniform(w.n, box, seed, 0.02);
}

/// Simulation::Config for the workload. Only the physical problem and the
/// live plane are set; everything else keeps its default.
inline Sim::Config make_config(const Workload& w,
                               std::shared_ptr<canb::vmpi::Transport> transport) {
  Sim::Config cfg;
  cfg.method = w.method;
  cfg.p = w.p;
  cfg.c = w.c;
  cfg.machine = canb::machine::hopper();
  cfg.kernel = Kernel{1e-4, 1e-2};
  cfg.cutoff = w.cutoff;
  cfg.dt = 1e-4;
  cfg.transport = std::move(transport);
  if (w.live_plane) {
    cfg.obs = canb::obs::ObsLevel::Metrics;
    cfg.series_capacity = 1024;
    cfg.serve_port = 0;
  }
  return cfg;
}

}  // namespace perfbench
