// Google-benchmark microbenches for the substrate hot paths: force
// kernels, block interactions, cell lists, vmpi primitives, and full
// engine steps. These measure *host* performance of the simulator itself
// (how fast the reproduction runs), not virtual machine time.
#include <benchmark/benchmark.h>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/batched_engine.hpp"
#include "particles/cell_list.hpp"
#include "particles/init.hpp"
#include "particles/kernels.hpp"
#include "vmpi/primitives.hpp"

namespace {

using namespace canb;
using particles::Box;
using particles::InverseSquareRepulsion;

void BM_KernelInverseSquare(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Box box = Box::reflective_2d(1.0);
  auto ps = particles::init_uniform(n, box, 1);
  const InverseSquareRepulsion k{1e-4, 1e-2};
  for (auto _ : state) {
    particles::clear_forces(ps);
    auto count = particles::accumulate_forces(std::span<particles::Particle>(ps),
                                              std::span<const particles::Particle>(ps), box, k);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1));
}
BENCHMARK(BM_KernelInverseSquare)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_KernelInverseSquareBatched(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Box box = Box::reflective_2d(1.0);
  auto ps = particles::init_uniform(n, box, 1);
  const InverseSquareRepulsion k{1e-4, 1e-2};
  for (auto _ : state) {
    particles::clear_forces(ps);
    auto count = particles::accumulate_forces_batched(
        std::span<particles::Particle>(ps), std::span<const particles::Particle>(ps), box, k);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1));
}
BENCHMARK(BM_KernelInverseSquareBatched)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CellListForces(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Box box = Box::reflective_2d(1.0);
  auto ps = particles::init_uniform(n, box, 1);
  const InverseSquareRepulsion k{1e-4, 1e-2};
  for (auto _ : state) {
    particles::clear_forces(ps);
    auto applied = particles::cell_list_forces(std::span<particles::Particle>(ps), box, k, 0.1);
    benchmark::DoNotOptimize(applied);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellListForces)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CellListForcesBatched(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const Box box = Box::reflective_2d(1.0);
  auto ps = particles::init_uniform(n, box, 1);
  const InverseSquareRepulsion k{1e-4, 1e-2};
  for (auto _ : state) {
    particles::clear_forces(ps);
    auto applied = particles::cell_list_forces(std::span<particles::Particle>(ps), box, k, 0.1,
                                               particles::KernelEngine::Batched);
    benchmark::DoNotOptimize(applied);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellListForcesBatched)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_ShiftRows(benchmark::State& state) {
  const auto p = static_cast<int>(state.range(0));
  vmpi::VirtualComm vc(p, machine::hopper());
  const auto g = vmpi::Grid2d::make(p, 4);
  std::vector<core::PhantomBlock> bufs(static_cast<std::size_t>(p), {16});
  for (auto _ : state) {
    vmpi::shift_rows(vc, g, 4, bufs, &core::PhantomPolicy::bytes);
    benchmark::DoNotOptimize(bufs.data());
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_ShiftRows)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_TeamBroadcast(benchmark::State& state) {
  const auto p = static_cast<int>(state.range(0));
  vmpi::VirtualComm vc(p, machine::hopper());
  const auto g = vmpi::Grid2d::make(p, 8);
  std::vector<core::PhantomBlock> bufs(static_cast<std::size_t>(p), {16});
  vmpi::DataPlane<core::PhantomBlock> plane;
  for (auto _ : state) {
    vmpi::broadcast_teams(vc, g, bufs, &core::PhantomPolicy::bytes, vmpi::Phase::Broadcast, plane);
    benchmark::DoNotOptimize(bufs.data());
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_TeamBroadcast)->Arg(1024)->Arg(8192);

void BM_CaAllPairsStepReal(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const int p = 16;
  const int c = 2;
  const Box box = Box::reflective_2d(1.0);
  using Policy = core::RealPolicy<InverseSquareRepulsion>;
  Policy policy({box, InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
  const auto init = particles::init_uniform(n, box, 3, 0.01);
  core::CaAllPairs<Policy> engine({p, c, machine::laptop()}, std::move(policy),
                                  decomp::split_even(init, p / c));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1));
}
BENCHMARK(BM_CaAllPairsStepReal)->Arg(256)->Arg(1024);

void BM_CaAllPairsStepPhantomBulk(benchmark::State& state) {
  const auto p = static_cast<int>(state.range(0));
  core::PhantomPolicy policy({0.0, true});
  core::CaAllPairs<core::PhantomPolicy> engine(
      {p, 8, machine::hopper()}, policy,
      std::vector<core::PhantomBlock>(static_cast<std::size_t>(p / 8), {64}));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_CaAllPairsStepPhantomBulk)->Arg(4096)->Arg(32768);

void BM_CaCutoffStepPhantom(benchmark::State& state) {
  const auto p = static_cast<int>(state.range(0));
  const int c = 4;
  const int q = p / c;
  const int m = q / 8;
  core::PhantomPolicy policy({0.05, true});
  core::CaCutoff<core::PhantomPolicy> engine(
      {p, c, machine::hopper(), core::CutoffGeometry::make_1d(q, m), false}, policy,
      std::vector<core::PhantomBlock>(static_cast<std::size_t>(q), {16}));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_CaCutoffStepPhantom)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
