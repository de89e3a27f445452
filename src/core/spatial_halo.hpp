// The classic spatial decomposition with halo exchange (Section II-C) —
// the non-replicating baseline the cutoff algorithm is measured against.
//
// Each of p ranks owns one region. Every step, a rank fetches each
// in-window neighbor block with a direct exchange (one message per window
// offset), computes against it immediately, integrates, and re-assigns
// migrated particles. Costs: S = O(m^d) messages, W = O(n m^d / p) words —
// the paper shows this is communication-optimal for minimal memory
// M = O(n/p), i.e. it is the c = 1 end point of the CA cutoff spectrum
// with a direct-fetch rather than systolic schedule.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "particles/integrator.hpp"
#include "support/assert.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::core {

template <class Policy>
class SpatialHaloDecomposition {
 public:
  using Buffer = typename Policy::Buffer;

  struct Config {
    int p = 1;
    machine::MachineModel machine;
    CutoffGeometry geometry = CutoffGeometry::make_1d(1, 0);  ///< teams() must equal p
    bool periodic = false;
  };

  SpatialHaloDecomposition(Config cfg, Policy policy, std::vector<Buffer> team_blocks)
      : cfg_(std::move(cfg)),
        policy_(std::move(policy)),
        grid_(vmpi::Grid2d::make(cfg_.p, 1)),
        vc_(cfg_.p, cfg_.machine),
        integrator_(std::make_unique<particles::VelocityVerlet>()) {
    CANB_REQUIRE(cfg_.geometry.teams() == cfg_.p,
                 "spatial decomposition assigns one region per rank");
    CANB_REQUIRE(static_cast<int>(team_blocks.size()) == cfg_.p, "need one block per rank");
    resident_ = std::move(team_blocks);
  }

  /// Converting constructor: accepts blocks in a different layout than the
  /// policy's Buffer and converts once at setup time.
  template <class B>
    requires(!std::is_same_v<B, Buffer> && std::is_constructible_v<Buffer, B>)
  SpatialHaloDecomposition(Config cfg, Policy policy, std::vector<B> team_blocks)
      : SpatialHaloDecomposition(std::move(cfg), std::move(policy),
                                 convert_blocks<Buffer>(std::move(team_blocks))) {}

  void set_integrator(std::unique_ptr<particles::Integrator> integ) {
    integrator_ = std::move(integ);
  }

  void step() {
    const auto& geom = cfg_.geometry;
    if constexpr (!Policy::kIsPhantom) {
      for (auto& b : resident_) policy_.pre_force(*integrator_, b);
    }
    // Self-interactions first.
    for (int r = 0; r < cfg_.p; ++r) {
      const auto stats = policy_.interact(resident_[static_cast<std::size_t>(r)],
                                          resident_[static_cast<std::size_t>(r)],
                                          /*same_block=*/true);
      vc_.charge_interactions(r, static_cast<double>(stats.examined));
    }
    // One direct exchange per non-center window offset. Under reflective
    // boundaries, offsets that fall off the grid are not sent (their
    // payload is zero), so boundary ranks both send and compute less.
    for (int s = 0; s < geom.window(); ++s) {
      if (s == geom.center_slot()) continue;
      const TeamOffset off = geom.slot_offset(s);
      const TeamOffset back{-off.x, -off.y, -off.z};
      vc_.permute_step(
          vmpi::Phase::Shift,
          [&](int r) { return geom.wrap_team(r, back); },
          [&](int src) {
            if (!cfg_.periodic && !geom.in_bounds(src, off)) return 0.0;
            return static_cast<double>(Policy::bytes(resident_[static_cast<std::size_t>(src)]));
          });
      for (int r = 0; r < cfg_.p; ++r) {
        if (!cfg_.periodic && !geom.in_bounds(r, back)) continue;  // nothing arrived
        const int src = geom.wrap_team(r, back);
        const auto stats = policy_.interact(resident_[static_cast<std::size_t>(r)],
                                            resident_[static_cast<std::size_t>(src)],
                                            /*same_block=*/false);
        vc_.charge_interactions(r, static_cast<double>(stats.examined));
      }
    }
    for (int r = 0; r < cfg_.p; ++r) {
      auto& block = resident_[static_cast<std::size_t>(r)];
      if constexpr (!Policy::kIsPhantom) policy_.post_force(*integrator_, block);
      vc_.advance(r, vmpi::Phase::Compute,
                  cfg_.machine.gamma_flop * kIntegrateFlopsPerParticle *
                      static_cast<double>(Policy::count(block)));
    }
    reassign_spatial(vc_, grid_, cfg_.geometry, policy_, resident_, cfg_.machine, plane_);
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  const vmpi::VirtualComm& comm() const noexcept { return vc_; }
  vmpi::VirtualComm& comm() noexcept { return vc_; }
  std::vector<Buffer> team_results() const { return resident_; }

 private:
  Config cfg_;
  Policy policy_;
  vmpi::Grid2d grid_;
  vmpi::VirtualComm vc_;
  std::unique_ptr<particles::Integrator> integrator_;
  /// Host data plane of the re-assignment loop: recycled route lists and
  /// in-place compaction (core/reassign.hpp). No workers: serial.
  vmpi::DataPlane<Buffer> plane_;
  std::vector<Buffer> resident_;
};

}  // namespace canb::core
