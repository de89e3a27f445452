// Kernel-generic engine coverage: every force kernel through the CA
// engines against the serial reference (typed test over the kernel set),
// plus the Batched-vs-Scalar kernel-engine parity suite: forces must agree
// within 1e-5 relative error and InteractionCount must be bitwise equal for
// every kernel across cutoff/boundary/self-interaction cases — the batched
// engine may only change host time, never physics or the ledger. The
// default scalar SoA engine is pinned harder: bit for bit against the AoS
// particles::accumulate_forces oracle, counts included.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/batched_engine.hpp"
#include "particles/diagnostics.hpp"
#include "particles/init.hpp"
#include "particles/reference.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace canb;
using particles::Block;
using particles::Box;

// Per-kernel parameters chosen so forces are O(1) at typical spacings.
template <class K>
K make_kernel();
template <>
particles::InverseSquareRepulsion make_kernel() {
  return {1e-4, 1e-2};
}
template <>
particles::Gravity make_kernel() {
  return {1e-4, 1e-2};
}
template <>
particles::LennardJones make_kernel() {
  return {1e-6, 0.05};
}
template <>
particles::Yukawa make_kernel() {
  return {1e-3, 0.1, 1e-2};
}
template <>
particles::Morse make_kernel() {
  return {1e-4, 8.0, 0.1};
}
template <>
particles::SoftSphere make_kernel() {
  return {5.0, 0.06};
}

template <class K>
class KernelEngines : public ::testing::Test {};

using AllKernels =
    ::testing::Types<particles::InverseSquareRepulsion, particles::Gravity,
                     particles::LennardJones, particles::Yukawa, particles::Morse,
                     particles::SoftSphere>;

class KernelNames {
 public:
  template <class K>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<K, particles::InverseSquareRepulsion>) return "InverseSquare";
    if constexpr (std::is_same_v<K, particles::Gravity>) return "Gravity";
    if constexpr (std::is_same_v<K, particles::LennardJones>) return "LennardJones";
    if constexpr (std::is_same_v<K, particles::Yukawa>) return "Yukawa";
    if constexpr (std::is_same_v<K, particles::Morse>) return "Morse";
    if constexpr (std::is_same_v<K, particles::SoftSphere>) return "SoftSphere";
    return "Unknown";
  }
};

TYPED_TEST_SUITE(KernelEngines, AllKernels, KernelNames);

// --- Batched vs Scalar parity ----------------------------------------------

// Runs one block-block sweep with both engines on identical inputs and
// checks force agreement (<= 1e-5 relative) plus bitwise-equal counts.
template <class K>
void expect_engine_parity(const Box& box, double cutoff, bool self_interaction,
                          std::uint64_t seed) {
  const K kernel = make_kernel<K>();
  auto targets_scalar = particles::init_uniform(96, box, seed);
  // Self-interaction: the visiting block is a copy of the resident block
  // (same ids), exactly what a CA engine's same_block step produces.
  auto sources = self_interaction ? targets_scalar : particles::init_uniform(96, box, seed + 1);
  if (!self_interaction) {
    for (auto& s : sources) s.id += 1000;  // distinct ids across blocks
  }
  auto targets_batched = targets_scalar;

  const auto count_scalar = particles::accumulate_forces(
      std::span<particles::Particle>(targets_scalar),
      std::span<const particles::Particle>(sources), box, kernel, cutoff);
  const auto count_batched = particles::accumulate_forces_batched(
      std::span<particles::Particle>(targets_batched),
      std::span<const particles::Particle>(sources), box, kernel, cutoff);

  EXPECT_EQ(count_scalar.examined, count_batched.examined);
  EXPECT_EQ(count_scalar.within_cutoff, count_batched.within_cutoff);
  EXPECT_LT(particles::max_force_deviation(targets_batched, targets_scalar, 1e-12), 1e-5);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarNoCutoff) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.0, false, 21);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarWithCutoff) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.25, false, 23);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarSelfInteraction) {
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.0, true, 25);
  expect_engine_parity<TypeParam>(Box::reflective_2d(1.0), 0.25, true, 27);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarPeriodic) {
  expect_engine_parity<TypeParam>(Box::periodic_2d(1.0), 0.0, false, 29);
  expect_engine_parity<TypeParam>(Box::periodic_2d(1.0), 0.3, true, 31);
}

TYPED_TEST(KernelEngines, BatchedMatchesScalarOneDimensional) {
  expect_engine_parity<TypeParam>(Box::reflective_1d(1.0), 0.0, true, 33);
  expect_engine_parity<TypeParam>(Box::periodic_1d(1.0), 0.2, false, 35);
}

TYPED_TEST(KernelEngines, BatchedCellListMatchesScalarCellList) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  for (const Box& box : {Box::reflective_2d(1.0), Box::periodic_2d(1.0)}) {
    const double cutoff = 0.2;
    auto scalar_ps = particles::init_uniform(200, box, 41);
    auto batched_ps = scalar_ps;
    const auto applied_scalar = particles::cell_list_forces(
        std::span<particles::Particle>(scalar_ps), box, kernel, cutoff,
        particles::KernelEngine::Scalar);
    const auto applied_batched = particles::cell_list_forces(
        std::span<particles::Particle>(batched_ps), box, kernel, cutoff,
        particles::KernelEngine::Batched);
    EXPECT_EQ(applied_scalar, applied_batched);
    particles::sort_by_id(scalar_ps);
    particles::sort_by_id(batched_ps);
    EXPECT_LT(particles::max_force_deviation(batched_ps, scalar_ps, 1e-12), 1e-5);
  }
}

// --- Scalar SoA engine vs the AoS oracle (bitwise) --------------------------

// Source ids start here so cross-block pairs never share an id.
constexpr std::int32_t kSourceIdBase = 100000;

Block with_source_ids(Block b) {
  for (auto& p : b) p.id += kSourceIdBase;
  return b;
}

// Seeds the targets' force fields with prior partial sums, -0.0f among
// them, so the per-target float fold runs on every target: a sweep that
// skipped the fold for a target without in-range pairs would leave a -0.0
// lane that the oracle turns into +0.0.
Block with_prior_forces(Block b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].fx = i % 3 == 0 ? -0.0f : 0.25f * static_cast<float>(i % 7) - 0.5f;
    b[i].fy = i % 3 == 1 ? -0.0f : 0.125f * static_cast<float>(i % 5);
  }
  return b;
}

// interact_blocks(Scalar) on SoA blocks against particles::accumulate_forces
// on the same particles: every count exact, every force lane bit-equal.
template <class K>
void expect_scalar_matches_oracle(const Box& box, double cutoff, const Block& targets,
                                  const Block& sources, bool same_block = false) {
  const K kernel = make_kernel<K>();
  Block want = targets;
  const auto cw = particles::accumulate_forces(std::span<particles::Particle>(want),
                                               std::span<const particles::Particle>(sources),
                                               box, kernel, cutoff);
  particles::SoaBlock got(targets);
  const particles::SoaBlock src(sources);
  const auto cg = particles::interact_blocks(particles::KernelEngine::Scalar, got, src, box,
                                             kernel, cutoff, same_block);
  EXPECT_EQ(cg.examined, cw.examined);
  EXPECT_EQ(cg.within_cutoff, cw.within_cutoff);
  EXPECT_EQ(cg.computed, cw.computed);
  EXPECT_EQ(cg.half_sweep, cw.half_sweep);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const particles::Particle g = got.get(i);
    // The lanes must hold float-representable values (the fold's contract)
    // and those floats must be the oracle's, sign of zero included.
    EXPECT_EQ(got.fx[i], static_cast<double>(g.fx)) << "target " << i;
    EXPECT_EQ(got.fy[i], static_cast<double>(g.fy)) << "target " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.fx), std::bit_cast<std::uint32_t>(want[i].fx))
        << "fx of target " << i << ": " << g.fx << " vs " << want[i].fx;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.fy), std::bit_cast<std::uint32_t>(want[i].fy))
        << "fy of target " << i << ": " << g.fy << " vs " << want[i].fy;
  }
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleAcrossBoxes) {
  struct Case {
    Box box;
    double cutoff;
  };
  const Case cases[] = {
      {Box::reflective_2d(1.0), 0.0},  {Box::reflective_2d(1.0), 0.2},
      {Box::periodic_2d(1.0), 0.0},    {Box::periodic_2d(1.0), 0.3},
      {Box::reflective_1d(1.0), 0.0},  {Box::reflective_1d(1.0), 0.1},
      {Box::periodic_1d(1.0), 0.0},    {Box::periodic_1d(1.0), 0.2},
  };
  std::uint64_t seed = 51;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "dims=" << c.box.dims << " periodic="
                                      << (c.box.boundary == particles::Boundary::Periodic)
                                      << " cutoff=" << c.cutoff);
    const Block targets = with_prior_forces(particles::init_uniform(96, c.box, seed++));
    const Block sources = with_source_ids(particles::init_uniform(80, c.box, seed++));
    expect_scalar_matches_oracle<TypeParam>(c.box, c.cutoff, targets, sources);
  }
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleSameBlock) {
  for (const Box& box : {Box::reflective_2d(1.0), Box::periodic_2d(1.0), Box::periodic_1d(1.0)}) {
    for (const double cutoff : {0.0, 0.25}) {
      const Block targets = with_prior_forces(particles::init_uniform(120, box, 61));
      expect_scalar_matches_oracle<TypeParam>(box, cutoff, targets, targets,
                                              /*same_block=*/true);
    }
  }
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleAcrossSourceChunks) {
  // More sources than one filter/compute chunk, and not a multiple of it:
  // the running sums carry across chunk boundaries and the tail chunk.
  const int ns = static_cast<int>(3 * particles::kScalarCutoffChunk + 37);
  for (const Box& box : {Box::reflective_2d(1.0), Box::periodic_2d(1.0)}) {
    const Block targets = with_prior_forces(particles::init_uniform(40, box, 71));
    const Block sources = with_source_ids(particles::init_uniform(ns, box, 72));
    expect_scalar_matches_oracle<TypeParam>(box, 0.35, targets, sources);
    // The same block on both sides: every chunk holds one id-equal lane.
    const Block both = with_prior_forces(particles::init_uniform(ns, box, 73));
    expect_scalar_matches_oracle<TypeParam>(box, 0.2, both, both, /*same_block=*/true);
  }
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleSummationOrder) {
  // The float fold hides most double-level reorderings, so cancel the
  // signal: sources come in mirror pairs around the target (dyadic
  // offsets, so each pair's forces are exact negatives), all first halves
  // before all mirrors. The exact sum is 0 and the result is pure rounding
  // residue of the running sum across chunk boundaries: a different order
  // or grouping of the in-range adds changes its bits.
  const Box box = Box::reflective_2d(1.0);
  const int pairs = static_cast<int>(particles::kScalarCutoffChunk) + 45;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Block offsets = particles::init_uniform(pairs, box, 100 + seed);
    Block sources(2 * offsets.size());
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      // Offsets on a 2^-20 grid in (-0.2, 0.2): 0.5 +- d is exact in float.
      const float dx = std::round((offsets[k].px - 0.5f) * 0.4f * 1048576.0f) / 1048576.0f;
      const float dy = std::round((offsets[k].py - 0.5f) * 0.4f * 1048576.0f) / 1048576.0f;
      particles::Particle& a = sources[k];
      particles::Particle& b = sources[k + offsets.size()];
      a.px = 0.5f + dx;
      a.py = 0.5f + dy;
      b.px = 0.5f - dx;
      b.py = 0.5f - dy;
      a.charge = b.charge = offsets[k].charge;
      a.mass = b.mass = offsets[k].mass;
      a.id = kSourceIdBase + static_cast<std::int32_t>(k);
      b.id = kSourceIdBase + static_cast<std::int32_t>(k + offsets.size());
    }
    Block target(1);
    target[0].px = 0.5f;
    target[0].py = 0.5f;
    target[0].id = 0;
    expect_scalar_matches_oracle<TypeParam>(box, 0.25, target, sources);
  }
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleAtCutoffFromVisitorBounds) {
  // Sources on a dyadic lattice spanning [lo, hi]^2, targets exactly one
  // cutoff away from an edge (r2 == cutoff2 in exact arithmetic: the pair
  // is in range), one float step farther, or across the periodic wrap. The
  // target cull must keep every in-range pair and drop only provably
  // out-of-range ones.
  const double cutoff = 0.25;
  const float lo = 0.25f;
  const float hi = 0.5f;
  Block sources;
  for (int a = 0; a <= 4; ++a) {
    for (int b = 0; b <= 4; ++b) {
      particles::Particle p{};
      p.px = lo + 0.0625f * static_cast<float>(a);
      p.py = lo + 0.0625f * static_cast<float>(b);
      p.mass = 1.0f + 0.125f * static_cast<float>(a);
      p.charge = 1.0f - 0.0625f * static_cast<float>(b);
      p.id = kSourceIdBase + a * 5 + b;
      sources.push_back(p);
    }
  }
  const float c = static_cast<float>(cutoff);
  const auto just_past = [](float v, float away) { return std::nextafter(v, away); };
  const float edges[][2] = {
      {hi + c, 0.375f},  {lo - c, 0.3125f}, {0.4375f, hi + c}, {0.25f, lo - c},  // on an edge
      {just_past(hi + c, 1.0f), 0.375f},   {just_past(lo - c, -1.0f), 0.5f},    // one ulp out
      {0.375f, just_past(hi + c, 1.0f)},   {hi + c, hi + c},                     // corner: out
      {hi, hi + c},      {lo, lo - c},      {0.375f, 0.375f},  {0.875f, 0.875f},  // inside, far
  };
  Block base;
  std::int32_t id = 0;
  for (const auto& e : edges) {
    particles::Particle p{};
    p.px = e[0];
    p.py = e[1];
    p.mass = 2.0f;
    p.charge = 0.5f;
    p.id = id++;
    base.push_back(p);
  }
  const Block targets = with_prior_forces(base);
  expect_scalar_matches_oracle<TypeParam>(Box::reflective_2d(1.0), cutoff, targets, sources);
  expect_scalar_matches_oracle<TypeParam>(Box::periodic_2d(1.0), cutoff, targets, sources);

  // Across the wrap: sources at x in [0.125, 0.25]; x = 0.875 sits exactly
  // one cutoff below x = 0.125 through the periodic boundary (dx = 0.75 - 1).
  Block wrapped = sources;
  for (auto& p : wrapped) p.px -= 0.125f;
  Block across = targets;
  across[0].px = 0.875f;
  across[1].px = just_past(0.875f, 0.0f);
  expect_scalar_matches_oracle<TypeParam>(Box::periodic_2d(1.0), cutoff, across, wrapped);
  expect_scalar_matches_oracle<TypeParam>(Box::periodic_1d(1.0), cutoff, across, wrapped);
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleOnPlummerBlocks) {
  // Clustered input: dense cores where most pairs are in range, a sparse
  // halo where most targets are out of reach of the visitor block.
  const Box box = Box::reflective_2d(1.0);
  const Block targets = with_prior_forces(particles::init_plummer(300, box, 0.1, 81, 0.02));
  const Block sources = with_source_ids(particles::init_plummer(280, box, 0.1, 82, 0.02));
  expect_scalar_matches_oracle<TypeParam>(box, 0.1, targets, sources);
  expect_scalar_matches_oracle<TypeParam>(box, 0.1, targets, targets, /*same_block=*/true);
  // A visitor block cut to one quadrant: most of the halo is culled.
  Block quadrant;
  for (const auto& p : sources)
    if (p.px < 0.5f && p.py < 0.5f) quadrant.push_back(p);
  expect_scalar_matches_oracle<TypeParam>(box, 0.1, targets, quadrant);
}

TYPED_TEST(KernelEngines, ScalarMatchesAosOracleOnEmptyBlocks) {
  const Box box = Box::periodic_2d(1.0);
  const Block some = with_prior_forces(particles::init_uniform(24, box, 91));
  const Block none;
  for (const double cutoff : {0.0, 0.2}) {
    expect_scalar_matches_oracle<TypeParam>(box, cutoff, none, some);
    expect_scalar_matches_oracle<TypeParam>(box, cutoff, some, none);
    expect_scalar_matches_oracle<TypeParam>(box, cutoff, none, none, /*same_block=*/true);
  }
}

TYPED_TEST(KernelEngines, CaAllPairsMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(64, box, 0.4, 11);

  core::RealPolicy<K> policy({box, kernel, 0.0, 1e-4});
  core::CaAllPairs<core::RealPolicy<K>> engine({16, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 8));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

TYPED_TEST(KernelEngines, CaCutoffMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const double cutoff = 0.25;
  const auto init = particles::init_lattice(80, box, 0.4, 13);
  const int qx = 4;
  const int qy = 4;
  const int m = core::window_radius_teams(cutoff, 1.0, qx);

  core::RealPolicy<K> policy({box, kernel, cutoff, 1e-4});
  core::CaCutoff<core::RealPolicy<K>> engine(
      {32, 2, machine::laptop(), core::CutoffGeometry::make_2d(qx, qy, m, m), false},
      std::move(policy), decomp::split_spatial_2d(init, box, qx, qy));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4, cutoff});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

TYPED_TEST(KernelEngines, CaAllPairsBatchedMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(64, box, 0.4, 11);

  core::RealPolicy<K> policy({box, kernel, 0.0, 1e-4, particles::KernelEngine::Batched});
  core::CaAllPairs<core::RealPolicy<K>> engine({16, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 8));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

TYPED_TEST(KernelEngines, CaCutoffBatchedMatchesReference) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const double cutoff = 0.25;
  const auto init = particles::init_lattice(80, box, 0.4, 13);
  const int qx = 4;
  const int qy = 4;
  const int m = core::window_radius_teams(cutoff, 1.0, qx);

  core::RealPolicy<K> policy({box, kernel, cutoff, 1e-4, particles::KernelEngine::Batched});
  core::CaCutoff<core::RealPolicy<K>> engine(
      {32, 2, machine::laptop(), core::CutoffGeometry::make_2d(qx, qy, m, m), false},
      std::move(policy), decomp::split_spatial_2d(init, box, qx, qy));
  engine.step();
  auto got = decomp::concat(engine.team_results());
  particles::sort_by_id(got);

  particles::SerialReference<K> ref(init, {box, kernel, 1e-4, cutoff});
  ref.step();
  auto want = ref.particles();
  particles::sort_by_id(want);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(particles::max_force_deviation(got, want), 3e-4);
}

// The acceptance contract of the KernelEngine layer: the per-step ledger
// (messages, words, per-phase virtual seconds, critical path) must be
// IDENTICAL across engines, because the engine only changes how the host
// executes the sweep, never what the virtual machine is charged.
template <class MakeSim>
void expect_ledger_invariant_across_engines(MakeSim make_sim) {
  auto scalar_sim = make_sim(particles::KernelEngine::Scalar);
  auto batched_sim = make_sim(particles::KernelEngine::Batched);
  scalar_sim.run(3);
  batched_sim.run(3);

  const auto rs = scalar_sim.report();
  const auto rb = batched_sim.report();
  EXPECT_EQ(rs.messages, rb.messages);
  EXPECT_EQ(rs.bytes, rb.bytes);
  EXPECT_EQ(rs.compute, rb.compute);
  EXPECT_EQ(rs.broadcast, rb.broadcast);
  EXPECT_EQ(rs.skew, rb.skew);
  EXPECT_EQ(rs.shift, rb.shift);
  EXPECT_EQ(rs.reduce, rb.reduce);
  EXPECT_EQ(rs.reassign, rb.reassign);
  EXPECT_EQ(rs.wall, rb.wall);
  EXPECT_EQ(rs.imbalance, rb.imbalance);

  // And the physics agrees to the parity tolerance.
  const auto ps = scalar_sim.gather();
  const auto pb = batched_sim.gather();
  ASSERT_EQ(ps.size(), pb.size());
  EXPECT_LT(particles::max_position_deviation(pb, ps), 1e-5);
}

TEST(KernelEngineLedger, CaAllPairsLedgerIdenticalAcrossEngines) {
  expect_ledger_invariant_across_engines([](particles::KernelEngine engine) {
    sim::Simulation<particles::InverseSquareRepulsion>::Config cfg;
    cfg.method = sim::Method::CaAllPairs;
    cfg.p = 16;
    cfg.c = 2;
    cfg.machine = machine::hopper();
    cfg.kernel = {1e-4, 1e-2};
    cfg.dt = 1e-4;
    cfg.engine = engine;
    return sim::Simulation<particles::InverseSquareRepulsion>(
        cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  });
}

TEST(KernelEngineLedger, CaCutoffLedgerIdenticalAcrossEngines) {
  expect_ledger_invariant_across_engines([](particles::KernelEngine engine) {
    sim::Simulation<particles::InverseSquareRepulsion>::Config cfg;
    cfg.method = sim::Method::CaCutoff;
    cfg.p = 32;
    cfg.c = 2;
    cfg.machine = machine::hopper();
    cfg.kernel = {1e-4, 1e-2};
    cfg.cutoff = 0.12;
    cfg.dt = 1e-4;
    cfg.engine = engine;
    return sim::Simulation<particles::InverseSquareRepulsion>(
        cfg, particles::init_uniform(256, cfg.box, 2013, 0.01));
  });
}

TYPED_TEST(KernelEngines, MultiStepTrajectoryStaysFiniteAndInBox) {
  using K = TypeParam;
  const K kernel = make_kernel<K>();
  const Box box = Box::reflective_2d(1.0);
  const auto init = particles::init_lattice(48, box, 0.3, 17);
  core::RealPolicy<K> policy({box, kernel, 0.0, 5e-4});
  core::CaAllPairs<core::RealPolicy<K>> engine({8, 2, machine::laptop()}, std::move(policy),
                                               decomp::split_even(init, 4));
  engine.run(20);
  auto got = decomp::concat(engine.team_results());
  for (const auto& p : got) {
    EXPECT_TRUE(std::isfinite(p.px) && std::isfinite(p.py));
    EXPECT_TRUE(std::isfinite(p.vx) && std::isfinite(p.vy));
    EXPECT_TRUE(particles::inside(p, box));
  }
}

}  // namespace
