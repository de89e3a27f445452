// The host data plane acceptance contract (vmpi/buffer_pool.hpp,
// primitives.hpp, core/reassign.hpp):
//
//  1. Fanning the data plane across host workers changes NOTHING
//     observable: trajectories, per-phase ledger fields, and full message
//     traces on 2 and 8 threads are bitwise identical to the serial
//     1-thread run, across engines and under an active PerturbationModel;
//     the spatial baselines' re-assignment matches its wire-routed twin.
//  2. After warm-up, the primitives' hot path performs zero heap
//     allocations (counted with a global operator new hook).
//  3. The BufferPool actually recycles capacity, and SoaBlock::assign_from
//     preserves destination capacity (the documented guarantee).
//  4. Host-phase wall seconds surface as gauges at --obs-level=metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "core/cutoff_geometry.hpp"
#include "core/policy.hpp"
#include "core/reassign.hpp"
#include "machine/presets.hpp"
#include "obs/telemetry.hpp"
#include "particles/init.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "vmpi/buffer_pool.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/trace.hpp"
#include "vmpi/transport.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook: every global new in this binary bumps a counter.
// The steady-state tests snapshot it around a hot-path region and assert a
// zero delta. Counting (not banning) keeps gtest and setup code unaffected.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs the malloc-backed replacement operator new with the library's
// free and flags a mismatch; the pairing is exactly what the replacement
// defines, so the warning is spurious in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace canb;
using Sim = sim::Simulation<particles::InverseSquareRepulsion>;
using particles::SoaBlock;

constexpr int kSteps = 3;

// --- bitwise comparison helpers (shared idiom with test_layout_invariance) --

::testing::AssertionResult bits_equal(float a, float b) {
  if (std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex
         << std::bit_cast<std::uint32_t>(a) << " vs 0x" << std::bit_cast<std::uint32_t>(b)
         << ")";
}

void expect_state_bitwise_equal(const particles::Block& got, const particles::Block& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id);
    EXPECT_TRUE(bits_equal(got[i].fx, want[i].fx)) << "fx of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].fy, want[i].fy)) << "fy of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].px, want[i].px)) << "px of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].py, want[i].py)) << "py of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].vx, want[i].vx)) << "vx of particle " << got[i].id;
    EXPECT_TRUE(bits_equal(got[i].vy, want[i].vy)) << "vy of particle " << got[i].id;
  }
}

void expect_report_field_equal(const sim::RunReport& got, const sim::RunReport& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.compute, want.compute);
  EXPECT_EQ(got.broadcast, want.broadcast);
  EXPECT_EQ(got.skew, want.skew);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.reduce, want.reduce);
  EXPECT_EQ(got.reassign, want.reassign);
  EXPECT_EQ(got.wall, want.wall);
  EXPECT_EQ(got.imbalance, want.imbalance);
}

// --- the thread-count property matrix ---------------------------------------

Sim make_sim(sim::Method method, double cutoff, bool fault, int threads) {
  Sim::Config cfg;
  cfg.method = method;
  cfg.p = method == sim::Method::CaCutoff ? 32 : 16;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = cutoff;
  cfg.dt = 1e-4;
  if (fault) {
    vmpi::FaultConfig fc;
    fc.seed = 4242;
    fc.straggler_rate = 0.05;
    fc.jitter = 0.1;
    fc.drop_rate = 0.02;
    fc.link_degrade_rate = 0.1;
    cfg.fault = fc;
  }
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  if (threads > 1) s.set_host_pool(std::make_shared<ThreadPool>(threads));
  return s;
}

/// Runs `steps` with a trace recorder attached and returns the serialized
/// full message trace plus final state and report.
struct RunResult {
  std::string trace;
  particles::Block state;
  sim::RunReport report;
};

RunResult run_traced(Sim& s) {
  vmpi::TraceRecorder rec;
  s.comm().set_trace(&rec);
  s.run(kSteps);
  return {vmpi::serialize_trace(rec), s.gather(), s.report()};
}

RunResult run_arm(sim::Method method, double cutoff, bool fault, int threads) {
  auto s = make_sim(method, cutoff, fault, threads);
  return run_traced(s);
}

void expect_run_equal(const RunResult& got, const RunResult& want) {
  expect_state_bitwise_equal(got.state, want.state);
  expect_report_field_equal(got.report, want.report);
  EXPECT_EQ(got.trace, want.trace) << "full message trace diverged";
}

void run_matrix(sim::Method method, double cutoff, bool fault) {
  // Reference: the serial plane (no workers) on one thread.
  const auto want = run_arm(method, cutoff, fault, /*threads=*/1);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    expect_run_equal(run_arm(method, cutoff, fault, threads), want);
  }
}

/// The spatial baselines take no host pool, so their re-assignment
/// (recycled route lists, in-place compaction) is checked against the same
/// run with every list shipment routed through a ModeledTransport — wire
/// round trips instead of the host appends.
RunResult run_spatial(sim::Method method, bool routed) {
  Sim::Config cfg;
  cfg.method = method;
  cfg.p = 16;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.cutoff = 0.12;
  cfg.dt = 5e-3;  // fast particles, long steps: teams trade migrants every step
  if (routed) cfg.transport = std::make_shared<vmpi::ModeledTransport>(cfg.p);
  Sim s(cfg, particles::init_uniform(256, cfg.box, 2013, 2.0));
  return run_traced(s);
}

void run_reassign_check(sim::Method method) {
  const auto want = run_spatial(method, /*routed=*/false);
  expect_run_equal(run_spatial(method, /*routed=*/true), want);
  EXPECT_GT(want.report.reassign, 0.0) << "the run must actually re-assign";
}

TEST(DataPlaneBitwise, CaAllPairs) { run_matrix(sim::Method::CaAllPairs, 0.0, false); }

TEST(DataPlaneBitwise, CaCutoff) { run_matrix(sim::Method::CaCutoff, 0.12, false); }

TEST(DataPlaneBitwise, CaAllPairsUnderFaultInjection) {
  run_matrix(sim::Method::CaAllPairs, 0.0, true);
}

TEST(DataPlaneBitwise, CaCutoffUnderFaultInjection) {
  run_matrix(sim::Method::CaCutoff, 0.12, true);
}

TEST(DataPlaneBitwise, SpatialHaloReassign) { run_reassign_check(sim::Method::SpatialHalo); }

TEST(DataPlaneBitwise, MidpointReassign) { run_reassign_check(sim::Method::Midpoint); }

TEST(DataPlaneOwnership, EnginesRejectANullPlane) {
  core::CaAllPairs<core::PhantomPolicy> all_pairs(
      {16, 2, machine::hopper()}, core::PhantomPolicy({0.0, true}),
      std::vector<core::PhantomBlock>(8, {16}));
  EXPECT_THROW(all_pairs.set_data_plane(nullptr), PreconditionError);
  core::CaCutoff<core::PhantomPolicy> cutoff(
      {32, 2, machine::hopper(), core::CutoffGeometry::make_1d(16, 2), false},
      core::PhantomPolicy({0.05, true}), std::vector<core::PhantomBlock>(16, {16}));
  EXPECT_THROW(cutoff.set_data_plane(nullptr), PreconditionError);
}

// --- re-assignment against a keep-list oracle --------------------------------
//
// One routing round on a 1D grid, fanned across two workers: every team
// keeps its stayers in their original order, then appends the particles
// arriving from the team below (the +1 shipment), then those from the team
// above (the -1 shipment). The oracle builds exactly that from the input,
// so any reordering or lane mix-up in the in-place compaction shows up.

TEST(DataPlaneReassign, MatchesKeepListOracle) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  constexpr int q = 8;
  constexpr int kPerTeam = 24;
  const auto g = vmpi::Grid2d::make(2 * q, 2);
  const auto geom = core::CutoffGeometry::make_1d(q, 1);
  const auto box = particles::Box::reflective_1d(1.0);
  Policy policy(Policy::Config{box, {1e-4, 1e-2}, 0.25, 1e-4});
  vmpi::VirtualComm vc(g.size(), machine::hopper());
  ThreadPool workers(2);
  vmpi::DataPlane<SoaBlock> plane;
  plane.workers = &workers;

  // Team t holds kPerTeam particles; every third one sits in the team
  // above and the next one in the team below (none leave the box).
  std::vector<SoaBlock> bufs(static_cast<std::size_t>(g.size()));
  std::vector<std::vector<particles::Particle>> held(q);
  std::vector<int> dest_of;
  for (int t = 0; t < q; ++t) {
    for (int i = 0; i < kPerTeam; ++i) {
      int dest = t;
      if (i % 3 == 1 && t + 1 < q) dest = t + 1;
      if (i % 3 == 2 && t > 0) dest = t - 1;
      particles::Particle p;
      p.id = static_cast<std::int32_t>(dest_of.size());
      p.px = (static_cast<float>(dest) + (static_cast<float>(i) + 0.5f) / kPerTeam) / q;
      p.py = 0.5f;
      p.vx = 0.001f * static_cast<float>(p.id);
      dest_of.push_back(dest);
      held[static_cast<std::size_t>(t)].push_back(p);
      bufs[static_cast<std::size_t>(g.leader(t))].push_back(p);
    }
  }
  auto movers = [&](int from, int to) {
    std::vector<particles::Particle> out;
    if (from < 0 || from >= q) return out;
    for (const auto& p : held[static_cast<std::size_t>(from)])
      if (dest_of[static_cast<std::size_t>(p.id)] == to) out.push_back(p);
    return out;
  };

  core::reassign_spatial(vc, g, geom, policy, bufs, vc.model(), plane);

  for (int t = 0; t < q; ++t) {
    SCOPED_TRACE(::testing::Message() << "team " << t);
    std::vector<particles::Particle> want = movers(t, t);
    for (const auto& p : movers(t - 1, t)) want.push_back(p);
    for (const auto& p : movers(t + 1, t)) want.push_back(p);
    const SoaBlock& got = bufs[static_cast<std::size_t>(g.leader(t))];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.id[i], want[i].id) << "slot " << i;
      EXPECT_TRUE(bits_equal(got.px[i], want[i].px)) << "slot " << i;
      EXPECT_TRUE(bits_equal(got.vx[i], want[i].vx)) << "slot " << i;
    }
  }
}

// --- BufferPool / SoaBlock capacity units ----------------------------------

SoaBlock filled_block(int n, float x0 = 0.25f) {
  SoaBlock b;
  for (int i = 0; i < n; ++i) {
    particles::Particle p;
    p.px = x0;
    p.py = 0.5f;
    p.id = i;
    p.mass = 1.0f;
    p.charge = 1.0f;
    b.push_back(p);
  }
  return b;
}

TEST(BufferPool, RecyclesCapacity) {
  vmpi::BufferPool<SoaBlock> pool;
  auto b = pool.acquire();
  EXPECT_EQ(pool.fresh_count(), 1u);
  for (int i = 0; i < 64; ++i) b.push_back(particles::Particle{});
  const auto cap = b.px.capacity();
  pool.release(std::move(b));
  auto b2 = pool.acquire();
  EXPECT_EQ(pool.reused_count(), 1u);
  EXPECT_EQ(b2.size(), 0u) << "recycled blocks come back empty";
  EXPECT_GE(b2.px.capacity(), cap) << "recycled blocks keep their lane capacity";
}

TEST(BufferPool, AcquireListReusesShellsAndBlocks) {
  vmpi::BufferPool<SoaBlock> pool;
  auto list = pool.acquire_list(8);
  ASSERT_EQ(list.size(), 8u);
  for (auto& b : list) b.push_back(particles::Particle{});
  pool.release_list(std::move(list));
  const auto fresh_before = pool.fresh_count();
  g_alloc_count.store(0);
  auto list2 = pool.acquire_list(8);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "steady-state acquire_list must not allocate";
  EXPECT_EQ(pool.fresh_count(), fresh_before) << "no fresh blocks on a warm pool";
  ASSERT_EQ(list2.size(), 8u);
  for (const auto& b : list2) EXPECT_EQ(b.size(), 0u);
  pool.release_list(std::move(list2));
}

TEST(SoaBlockAssign, AssignFromPreservesCapacityAndBits) {
  const auto src = filled_block(48);
  SoaBlock dst = filled_block(48, 0.75f);
  g_alloc_count.store(0);
  dst.assign_from(src);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "same-size assign_from must reuse capacity";
  ASSERT_EQ(dst.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.id[i], src.id[i]);
    EXPECT_TRUE(bits_equal(dst.px[i], src.px[i]));
  }
}

// --- zero-allocation steady state over the primitives hot path -------------

TEST(DataPlaneSteadyState, PrimitivesHotPathAllocatesNothing) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const int p = 16;
  const int c = 4;
  const auto g = vmpi::Grid2d::make(p, c);
  const int q = g.cols();
  vmpi::VirtualComm vc(p, machine::hopper());
  vmpi::DataPlane<SoaBlock> plane;  // no worker pool: serial fan-out

  // One resident block per leader: particles pinned to the center of team
  // t's 1D segment, so the re-assignment split finds no movers and the
  // route lists stay empty (the steady-state case for sane timesteps).
  const auto geom = core::CutoffGeometry::make_1d(q, 1);
  const auto box = particles::Box::reflective_2d(1.0);
  Policy policy(Policy::Config{box, {1e-4, 1e-2}, 0.25, 1e-4});
  std::vector<SoaBlock> bufs(static_cast<std::size_t>(p));
  for (int t = 0; t < q; ++t)
    bufs[static_cast<std::size_t>(g.leader(t))] =
        filled_block(32, (static_cast<float>(t) + 0.5f) / static_cast<float>(q));
  std::vector<SoaBlock> staged(static_cast<std::size_t>(p));
  std::vector<SoaBlock> scratch;
  std::vector<int> perm(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) perm[static_cast<std::size_t>(r)] = (r + q) % p;

  auto one_iteration = [&] {
    vmpi::broadcast_teams(vc, g, bufs, &Policy::bytes, vmpi::Phase::Broadcast, plane);
    vmpi::stage_buffers(
        vc, bufs, staged,
        [](int, SoaBlock& dst, const SoaBlock& src) { vmpi::detail::assign_visitor(dst, src); },
        plane);
    vmpi::skew_rows(vc, g, [](int row) { return row; }, staged, &Policy::bytes,
                    vmpi::Phase::Skew, plane.ints);
    vmpi::shift_rows(vc, g, 1, staged, &Policy::bytes);
    vmpi::permute_buffers(vc, [&](int r) { return perm[static_cast<std::size_t>(r)]; }, staged,
                          scratch, &Policy::bytes, vmpi::Phase::Shift);
    vmpi::reduce_teams(vc, g, bufs, &Policy::bytes, core::TeamCombine<Policy>{},
                       vmpi::Phase::Reduce, plane);
    core::reassign_spatial(vc, g, geom, policy, bufs, vc.model(), plane);
  };

  for (int i = 0; i < 3; ++i) one_iteration();  // warm-up: grow every capacity

  g_alloc_count.store(0);
  for (int i = 0; i < 5; ++i) one_iteration();
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "primitives hot path must be allocation-free after warm-up";
}

// --- host-phase gauges ------------------------------------------------------

TEST(DataPlaneObservability, HostPhaseSecondsSurfaceAsGauges) {
  Sim::Config cfg;
  cfg.method = sim::Method::CaAllPairs;
  cfg.p = 16;
  cfg.c = 2;
  cfg.machine = machine::hopper();
  cfg.kernel = {1e-4, 1e-2};
  cfg.dt = 1e-4;
  cfg.obs = obs::ObsLevel::Metrics;
  Sim s(cfg, particles::init_uniform(128, cfg.box, 2013, 0.01));
  s.run(2);
  s.finalize_telemetry();
  const auto& families = s.telemetry()->metrics().families();
  const auto it = families.find("canb_host_phase_seconds");
  ASSERT_NE(it, families.end()) << "host-phase gauge family missing at metrics level";
  EXPECT_FALSE(it->second.series.empty());
}

}  // namespace
