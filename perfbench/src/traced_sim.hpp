// The traced twin of sim::Simulation for the two CA methods: the same
// engine, wired the way Simulation wires it, but instantiated over
// TimingPolicy and handed the TimingTransport, with spans around the
// live-plane calls Simulation::step makes. Two gates in perfbench/run.py
// hold it to Simulation. The ledger and gathered state must be bitwise
// equal to the untraced run's, which covers the engine wiring. The
// endpoint's traffic (frames and bytes, sent and received) must be equal
// too, which covers the live-plane exchanges: each one sends a snapshot of
// the telemetry registry, so publishing more or less, or exchanging on
// another schedule, changes it. A change to what Simulation renders for the
// scrape endpoint (to_prometheus, healthz) sends nothing and is not caught;
// obs.publish_s times this copy of those calls.
#pragma once

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "decomp/partition.hpp"
#include "obs/export.hpp"
#include "obs/serve.hpp"
#include "obs/snapshot.hpp"
#include "obs/step_series.hpp"
#include "obs/telemetry.hpp"
#include "particles/init.hpp"
#include "particles/simd/simd.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "tracing.hpp"
#include "vmpi/gather.hpp"
#include "workloads.hpp"

namespace perfbench {

using TracedPolicy = TimingPolicy<Kernel>;

template <class Engine>
class TracedSim {
 public:
  using Buffer = typename TracedPolicy::Buffer;

  /// `cfg` comes from make_config(), with cfg.transport the timing
  /// decorator on a mesh workload.
  TracedSim(Sim::Config cfg, canb::particles::Block initial)
      : cfg_(std::move(cfg)),
        transport_(cfg_.transport),
        engine_(make_engine(cfg_, std::move(initial))) {
    CANB_REQUIRE(cfg_.tune == canb::sim::TuneMode::Off && !cfg_.fault,
                 "the traced run mirrors untuned, fault-free configurations only");
    engine_.set_integrator(canb::particles::make_integrator(cfg_.integrator));
    if (cfg_.pooled_data_plane) plane_ = std::make_shared<canb::vmpi::DataPlane<Buffer>>();
    engine_.set_data_plane(plane_);
    if (transport_) {
      engine_.comm().set_transport(transport_.get());
      owner_computes_ =
          cfg_.exec == canb::vmpi::ExecMode::OwnerComputes && transport_->groups() > 1;
      if (owner_computes_) engine_.comm().set_owner_computes(true);
    }
    if (cfg_.obs != canb::obs::ObsLevel::Off) {
      telemetry_ = std::make_unique<canb::obs::Telemetry>(cfg_.obs);
      engine_.set_telemetry(telemetry_.get());
      telemetry_->set_sweep_backend(
          canb::particles::simd::backend_name(canb::particles::simd::active()));
    }
    // The provenance keys Simulation stamps (they ride the build-info gauge
    // inside every telemetry snapshot, so they shape the snapshot bytes).
    manifest_.machine = cfg_.machine.name;
    manifest_.simd =
        canb::particles::simd::backend_name(canb::particles::simd::max_supported());
    manifest_.set("method", canb::sim::method_name(cfg_.method));
    manifest_.set("p", cfg_.p);
    manifest_.set("c", cfg_.c);
    manifest_.set("dt", cfg_.dt);
    if (cfg_.cutoff > 0.0) manifest_.set("cutoff", cfg_.cutoff);
    manifest_.set("engine", canb::particles::engine_name(cfg_.engine));
    manifest_.set("obs_level", canb::obs::obs_level_name(cfg_.obs));
    if (transport_) {
      manifest_.set("transport", canb::vmpi::transport_kind_name(transport_->kind()));
      manifest_.set("transport_groups", transport_->groups());
      manifest_.set("transport_exec", canb::vmpi::exec_mode_name(exec_mode()));
    }
    if (telemetry_) {
      if (transport_ && transport_->groups() > 1) {
        telemetry_->set_group(transport_->group());
        mesh_ = std::make_unique<canb::obs::MeshAggregator>(transport_);
      }
      if (cfg_.series_capacity > 0) {
        series_ = std::make_unique<canb::obs::StepSeries>(
            static_cast<std::size_t>(cfg_.series_capacity), cfg_.straggler_factor);
      }
      if (cfg_.serve_port >= 0 && (mesh_ == nullptr || mesh_->primary()))
        server_ = std::make_unique<canb::obs::MetricsServer>(cfg_.serve_port);
    }
  }

  void set_host_pool(std::shared_ptr<canb::ThreadPool> pool) {
    if (pool) {
      pool->set_sched_mode(cfg_.sched);
      pool->set_steal_grain(cfg_.steal_grain);
      pool_ = pool;
    }
    engine_.set_host_pool(std::move(pool));
  }

  void step() {
    const bool live = telemetry_ && (server_ || series_ || mesh_);
    std::chrono::steady_clock::time_point wall0{};
    canb::obs::StepSample sample;
    if (live) {
      const Scope scope("obs.sample");
      wall0 = std::chrono::steady_clock::now();
      sample.clock_advance_seconds = engine_.comm().max_clock();
      sample.pairs_examined = telemetry_->sweep_pairs_examined();
      sample.pairs_computed = telemetry_->sweep_pairs_computed();
      sample.steals = pool_ ? pool_->scheduler_stats().steals : 0;
      sample.retransmits = transport_ ? transport_->stats().retransmits : 0;
      sample.host_phase_seconds = telemetry_->host_seconds();
    }
    engine_.step();
    ++steps_;
    if (!live) return;
    {
      const Scope scope("obs.publish");
      publish_live();
      if (series_) {
        sample.step = steps_;
        sample.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
        sample.clock_advance_seconds =
            engine_.comm().max_clock() - sample.clock_advance_seconds;
        sample.pairs_examined = telemetry_->sweep_pairs_examined() - sample.pairs_examined;
        sample.pairs_computed = telemetry_->sweep_pairs_computed() - sample.pairs_computed;
        sample.steals = (pool_ ? pool_->scheduler_stats().steals : 0) - sample.steals;
        sample.retransmits =
            (transport_ ? transport_->stats().retransmits : 0) - sample.retransmits;
        sample.host_phase_seconds = telemetry_->host_seconds() - sample.host_phase_seconds;
        series_->record(sample);
      }
    }
    if (mesh_) {
      const Scope scope("obs.exchange");
      mesh_->exchange(telemetry_->metrics(), static_cast<std::uint64_t>(steps_));
    }
    if (server_) {
      const Scope scope("obs.serve");
      canb::obs::LiveContent content;
      content.prometheus = canb::obs::to_prometheus(
          mesh_ && mesh_->primary() ? mesh_->merged(telemetry_->metrics())
                                    : telemetry_->metrics());
      content.healthz = healthz_json();
      server_->publish(std::move(content));
    }
  }

  /// Simulation::gather: all particles sorted by id, all-gathered across
  /// the groups under owner-computes (symmetric on every group).
  canb::particles::Block gather() const {
    auto blocks = engine_.team_results();
    if (owner_computes_) {
      std::vector<int> leaders;
      for (int t = 0; t < engine_.grid().cols(); ++t) leaders.push_back(engine_.grid().leader(t));
      canb::vmpi::all_gather_teams(*transport_, leaders, blocks);
    }
    auto all = canb::decomp::concat(blocks);
    canb::particles::sort_by_id(all);
    return all;
  }

  const canb::vmpi::VirtualComm& comm() const { return engine_.comm(); }
  canb::ThreadPool* pool() const { return pool_.get(); }

 private:
  static Engine make_engine(const Sim::Config& cfg, canb::particles::Block initial) {
    cfg.box.validate();
    CANB_REQUIRE(cfg.box.dims == 2, "the traced run mirrors the 2D CA methods");
    TracedPolicy policy(
        typename TracedPolicy::Config{cfg.box, cfg.kernel, cfg.cutoff, cfg.dt, cfg.engine,
                                      cfg.sweep});
    const int q = cfg.p / cfg.c;
    if constexpr (std::is_same_v<Engine, canb::core::CaAllPairs<TracedPolicy>>) {
      return Engine(typename Engine::Config{cfg.p, cfg.c, cfg.machine}, std::move(policy),
                    canb::decomp::split_even(initial, q));
    } else {
      const auto [qx, qy] = canb::sim::near_square_factors(q);
      const int mx = canb::core::window_radius_teams(cfg.cutoff, cfg.box.lx, qx);
      const int my = canb::core::window_radius_teams(cfg.cutoff, cfg.box.ly, qy);
      const bool periodic = cfg.box.boundary == canb::particles::Boundary::Periodic;
      return Engine(typename Engine::Config{cfg.p, cfg.c, cfg.machine,
                                            canb::core::CutoffGeometry::make_2d(qx, qy, mx, my),
                                            periodic},
                    std::move(policy), canb::decomp::split_spatial_2d(initial, cfg.box, qx, qy));
    }
  }

  canb::vmpi::ExecMode exec_mode() const noexcept {
    return owner_computes_ ? canb::vmpi::ExecMode::OwnerComputes : canb::vmpi::ExecMode::Lockstep;
  }

  int local_ranks() const {
    if (!transport_) return cfg_.p;
    int n = 0;
    for (int r = 0; r < cfg_.p; ++r)
      if (transport_->local(r)) ++n;
    return n;
  }

  void publish_live() {
    if (pool_) {
      telemetry_->publish_scheduler(canb::to_string(pool_->sched_mode()),
                                    pool_->scheduler_stats());
    }
    if (transport_) {
      telemetry_->publish_transport(canb::vmpi::transport_kind_name(transport_->kind()),
                                    transport_->stats());
      telemetry_->publish_execution(canb::vmpi::exec_mode_name(exec_mode()), local_ranks());
    }
    telemetry_->publish_host_phases();
    if (!build_info_published_) {
      canb::obs::publish_build_info(telemetry_->metrics(), manifest_);
      build_info_published_ = true;
    }
  }

  std::string healthz_json() const {
    std::ostringstream os;
    canb::obs::JsonWriter w(os);
    w.begin_object();
    w.kv("state", "running");
    w.kv("step", steps_);
    w.kv("phase", telemetry_->last_phase_label());
    w.kv("method", canb::sim::method_name(cfg_.method));
    w.kv("p", cfg_.p);
    w.kv("groups", mesh_ ? mesh_->groups() : 1);
    w.kv("exec", canb::vmpi::exec_mode_name(exec_mode()));
    w.kv("local_ranks", local_ranks());
    w.kv("max_virtual_clock_seconds", engine_.comm().max_clock());
    w.end_object();
    return os.str();
  }

  Sim::Config cfg_;
  std::shared_ptr<canb::vmpi::Transport> transport_;
  Engine engine_;
  std::shared_ptr<canb::vmpi::DataPlane<Buffer>> plane_;
  std::unique_ptr<canb::obs::Telemetry> telemetry_;
  std::shared_ptr<canb::ThreadPool> pool_;
  int steps_ = 0;
  canb::obs::RunManifest manifest_;
  std::unique_ptr<canb::obs::MeshAggregator> mesh_;
  std::unique_ptr<canb::obs::StepSeries> series_;
  bool build_info_published_ = false;
  bool owner_computes_ = false;
  std::unique_ptr<canb::obs::MetricsServer> server_;
};

}  // namespace perfbench
