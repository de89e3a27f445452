// The midpoint method (Section II-D; Bowers, Dror & Shaw 2006): a
// neutral-territory decomposition where "a processor computes all
// interactions for which the midpoint of the interacting particles lies in
// the processor's territory."
//
// Import region: every rank fetches neighbor blocks within HALF the cutoff
// (plus one team of slack for midpoints near region edges) — the method's
// selling point versus a plain halo exchange, which must import the full
// radius. Each pair is computed exactly once, by the unique owner of its
// midpoint, exploiting force antisymmetry (f_ba = -f_ab); contributions to
// non-local particles are scattered back to their owners in a reverse
// exchange.
//
// Real payloads only: the pair-to-owner assignment depends on positions,
// which phantom counts do not carry. The paper's replication idea is
// orthogonal — this engine is the c = 1 neutral-territory baseline the
// paper positions itself against (S_NT = O(1) amortized neighbor volume,
// W_NT below the spatial decomposition's in higher dimensions).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "decomp/partition.hpp"
#include "particles/integrator.hpp"
#include "support/assert.hpp"
#include "vmpi/virtual_comm.hpp"

namespace canb::core {

template <particles::ForceKernel K>
class MidpointMethod {
 public:
  using Policy = RealPolicy<K>;
  using Buffer = typename Policy::Buffer;

  struct Config {
    int p = 1;
    machine::MachineModel machine;
    /// Full-radius geometry (same as the other cutoff engines); the import
    /// region is derived from it internally (half radius + 1 team slack).
    CutoffGeometry geometry = CutoffGeometry::make_1d(1, 0);
    bool periodic = false;
  };

  MidpointMethod(Config cfg, Policy policy, std::vector<Buffer> team_blocks)
      : cfg_(std::move(cfg)),
        policy_(std::move(policy)),
        grid_(vmpi::Grid2d::make(cfg_.p, 1)),
        vc_(cfg_.p, cfg_.machine),
        import_(make_import_geometry(cfg_.geometry)),
        integrator_(std::make_unique<particles::VelocityVerlet>()) {
    CANB_REQUIRE(cfg_.geometry.teams() == cfg_.p,
                 "midpoint method assigns one region per rank");
    CANB_REQUIRE(static_cast<int>(team_blocks.size()) == cfg_.p, "need one block per rank");
    resident_ = std::move(team_blocks);
  }

  /// Converting constructor: accepts the AoS blocks decomp::split_* produce
  /// (one layout conversion at setup time).
  MidpointMethod(Config cfg, Policy policy, std::vector<particles::Block> team_blocks)
      : MidpointMethod(std::move(cfg), std::move(policy),
                       convert_blocks<Buffer>(std::move(team_blocks))) {}

  void set_integrator(std::unique_ptr<particles::Integrator> integ) {
    integrator_ = std::move(integ);
  }

  void step() {
    for (auto& b : resident_) policy_.pre_force(*integrator_, b);
    charge_import_exchanges(vmpi::Phase::Shift);
    compute_midpoint_pairs();
    // Scatter-back: the same exchange pattern in reverse returns force
    // contributions to their owners (accumulation happened in place; the
    // cost is what a distributed implementation would pay).
    charge_import_exchanges(vmpi::Phase::Reduce);
    for (int r = 0; r < cfg_.p; ++r) {
      auto& block = resident_[static_cast<std::size_t>(r)];
      policy_.post_force(*integrator_, block);
      vc_.advance(r, vmpi::Phase::Compute,
                  cfg_.machine.gamma_flop * kIntegrateFlopsPerParticle *
                      static_cast<double>(block.size()));
    }
    reassign_spatial(vc_, grid_, cfg_.geometry, policy_, resident_, cfg_.machine, plane_);
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  const vmpi::VirtualComm& comm() const noexcept { return vc_; }
  vmpi::VirtualComm& comm() noexcept { return vc_; }
  const CutoffGeometry& import_geometry() const noexcept { return import_; }
  std::vector<Buffer> team_results() const { return resident_; }

 private:
  /// Half-radius import region: ceil(m/2) + 1 teams per axis (the +1 covers
  /// midpoints of pairs straddling a region edge).
  static CutoffGeometry make_import_geometry(const CutoffGeometry& full) {
    const int hx = std::min(full.mx() / 2 + 1, (full.qx() - 1) / 2);
    const int hy = full.dims() >= 2 ? std::min(full.my() / 2 + 1, (full.qy() - 1) / 2) : 0;
    if (full.dims() == 1) return CutoffGeometry::make_1d(full.qx(), hx);
    return CutoffGeometry::make_2d(full.qx(), full.qy(), hx, hy);
  }

  /// One exchange per import-region offset (cost only; the simulator reads
  /// neighbor blocks in place).
  void charge_import_exchanges(vmpi::Phase phase) {
    for (int s = 0; s < import_.window(); ++s) {
      if (s == import_.center_slot()) continue;
      const TeamOffset off = import_.slot_offset(s);
      const TeamOffset back{-off.x, -off.y, -off.z};
      vc_.permute_step(
          phase, [&](int r) { return import_.wrap_team(r, back); },
          [&](int src) {
            if (!cfg_.periodic && !import_.in_bounds(src, off)) return 0.0;
            return static_cast<double>(
                particles::block_bytes(resident_[static_cast<std::size_t>(src)]));
          },
          /*shift_phase=*/phase == vmpi::Phase::Shift);
    }
  }

  /// Owner of the midpoint of two particles at (ax, ay) and (ax - dx,
  /// ay - dy). Under periodic boundaries the midpoint follows the minimum
  /// image: walking half the (wrapped) displacement back from the first
  /// particle, then wrapping into the box — a pair straddling the seam has
  /// its midpoint at the seam, not mid-box. The midpoint rounds through
  /// float before the ownership test, as a materialized wire-format
  /// particle would.
  int midpoint_owner(double ax, double ay, double dx, double dy) const {
    const auto& box = policy_.box();
    auto wrap = [](double x, double l) {
      if (x < 0.0) x += l;
      if (x >= l) x -= l;
      return x;
    };
    double mx = ax - dx / 2.0;
    double my_ = ay - dy / 2.0;
    if (box.boundary == particles::Boundary::Periodic) {
      mx = wrap(mx, box.lx);
      if (box.dims == 2) my_ = wrap(my_, box.ly);
    }
    mx = static_cast<double>(static_cast<float>(mx));
    my_ = static_cast<double>(static_cast<float>(my_));
    if (cfg_.geometry.dims() == 1) return decomp::team_of_1d(mx, box, cfg_.geometry.qx());
    return decomp::team_of_2d(mx, my_, box, cfg_.geometry.qx(), cfg_.geometry.qy());
  }

  void compute_midpoint_pairs() {
    const auto& box = policy_.box();
    const auto& kernel = policy_.config().kernel;
    const double cutoff2 = policy_.cutoff() * policy_.cutoff();
    // Enumerate each unordered block pair once per owning rank. A pair of
    // blocks (v, w) = (t + ov, t + ow) can only contain midpoints in t's
    // region when ow is within one team of -ov per axis (block midpoints
    // land in [(v+w)/2, (v+w)/2 + 1) team widths), so each block has at
    // most 3^d candidate partners — the pruning real midpoint
    // implementations use, giving O(window) block pairs per rank instead
    // of O(window^2).
    for (int t = 0; t < cfg_.p; ++t) {
      std::uint64_t examined = 0;
      for (int sv = 0; sv < import_.window(); ++sv) {
        const TeamOffset ov = import_.slot_offset(sv);
        if (!cfg_.periodic && !import_.in_bounds(t, ov)) continue;
        const int v = import_.wrap_team(t, ov);
        const int dy_range = import_.dims() >= 2 ? 1 : 0;
        for (int dyc = -dy_range; dyc <= dy_range; ++dyc) {
        for (int dxc = -1; dxc <= 1; ++dxc) {
          const TeamOffset ow{-ov.x + dxc, -ov.y + dyc, -ov.z};
          const int sw = import_.slot_of(ow);
          if (sw < sv) continue;  // unordered pair handled once (or outside)
          if (!cfg_.periodic && !import_.in_bounds(t, ow)) continue;
          const int w = import_.wrap_team(t, ow);
          auto& bv = resident_[static_cast<std::size_t>(v)];
          auto& bw = resident_[static_cast<std::size_t>(w)];
          const bool periodic = box.boundary == particles::Boundary::Periodic;
          const bool two_d = box.dims == 2;
          const std::size_t nv = bv.size();
          const std::size_t nw = bw.size();
          for (std::size_t i = 0; i < nv; ++i) {
            const double ax = static_cast<double>(bv.px[i]);
            const double ay = two_d ? static_cast<double>(bv.py[i]) : 0.0;
            for (std::size_t j = 0; j < nw; ++j) {
              if (v == w && bv.id[i] >= bw.id[j]) continue;  // each intra pair once
              ++examined;
              double dx = ax - static_cast<double>(bw.px[j]);
              double dy = two_d ? ay - static_cast<double>(bw.py[j]) : 0.0;
              if (periodic) {
                if (dx > 0.5 * box.lx)
                  dx -= box.lx;
                else if (dx < -0.5 * box.lx)
                  dx += box.lx;
                if (two_d) {
                  if (dy > 0.5 * box.ly)
                    dy -= box.ly;
                  else if (dy < -0.5 * box.ly)
                    dy += box.ly;
                }
              }
              const double r2 = dx * dx + dy * dy;
              if (cutoff2 > 0.0 && r2 > cutoff2) continue;
              if (midpoint_owner(static_cast<double>(bv.px[i]), static_cast<double>(bv.py[i]),
                                 dx, dy) != t)
                continue;  // someone else's pair
              const double mag =
                  kernel.magnitude(r2, particles::lane_coupling<K>(bv, i, bw, j));
              const double ffx = mag * dx;
              const double ffy = mag * dy;
              // Per-pair float folds at the AoS pipeline's rounding points
              // (see the precision invariant in batched_engine.hpp);
              // antisymmetry: the owner applies the reaction too.
              bv.fx[i] = static_cast<double>(static_cast<float>(bv.fx[i]) +
                                             static_cast<float>(ffx));
              bv.fy[i] = static_cast<double>(static_cast<float>(bv.fy[i]) +
                                             static_cast<float>(ffy));
              bw.fx[j] = static_cast<double>(static_cast<float>(bw.fx[j]) -
                                             static_cast<float>(ffx));
              bw.fy[j] = static_cast<double>(static_cast<float>(bw.fy[j]) -
                                             static_cast<float>(ffy));
            }
          }
        }
        }
      }
      vc_.charge_interactions(t, static_cast<double>(examined));
    }
  }

  Config cfg_;
  Policy policy_;
  vmpi::Grid2d grid_;
  vmpi::VirtualComm vc_;
  CutoffGeometry import_;
  std::unique_ptr<particles::Integrator> integrator_;
  /// Host data plane of the re-assignment loop (see SpatialHaloDecomposition).
  vmpi::DataPlane<Buffer> plane_;
  std::vector<Buffer> resident_;
};

}  // namespace canb::core
