// Virtual MPI runtime: grids, ledgers, clock semantics, primitives.
#include <gtest/gtest.h>

#include <numeric>

#include "machine/presets.hpp"
#include "support/assert.hpp"
#include "vmpi/cost_ledger.hpp"
#include "vmpi/grid.hpp"
#include "vmpi/primitives.hpp"
#include "vmpi/virtual_comm.hpp"

namespace {

using namespace canb;
using namespace canb::vmpi;

machine::MachineModel flat_machine() {
  machine::MachineModel m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.gamma = 1e-8;
  m.gamma_flop = 1e-9;
  m.collectives = machine::make_ideal_log_tree(1e-6, 1e-9);
  return m;
}

// --- grid ---------------------------------------------------------------------

TEST(Grid, LayoutRoundTrips) {
  const auto g = Grid2d::make(12, 3);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  for (int r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g.rank(g.row_of(r), g.col_of(r)), r);
  }
  EXPECT_EQ(g.leader(2), 2);
  EXPECT_EQ(g.wrap_col(3, 1), 0);
  EXPECT_EQ(g.wrap_col(0, -1), 3);
  EXPECT_EQ(g.wrap_col(1, 9), 2);
}

TEST(Grid, RejectsNonDividingC) {
  EXPECT_THROW(Grid2d::make(10, 3), PreconditionError);
  EXPECT_NO_THROW(Grid2d::make(10, 5));
}

// --- ledger -------------------------------------------------------------------

TEST(Ledger, ChargesAccumulatePerPhase) {
  CostLedger led(4);
  led.charge(0, Phase::Shift, 1.0, 2, 100);
  led.charge(0, Phase::Compute, 0.5);
  led.charge(1, Phase::Shift, 3.0, 1, 50);
  EXPECT_DOUBLE_EQ(led.seconds(0, Phase::Shift), 1.0);
  EXPECT_DOUBLE_EQ(led.total_seconds(0), 1.5);
  EXPECT_EQ(led.messages(0), 2u);
  EXPECT_EQ(led.bytes(1), 50u);
  EXPECT_EQ(led.critical_rank(), 1);
  EXPECT_EQ(led.critical_messages(), 2u);
  EXPECT_EQ(led.critical_bytes(), 100u);
  EXPECT_EQ(led.aggregate(Phase::Shift).messages, 3u);
  EXPECT_EQ(led.aggregate_bytes(), 150u);
}

TEST(Ledger, ChargeAllWithRepeat) {
  CostLedger led(3);
  led.charge_all(Phase::Shift, 0.25, 1, 10, 4);
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(led.seconds(r, Phase::Shift), 1.0);
    EXPECT_EQ(led.messages(r), 4u);
    EXPECT_EQ(led.bytes(r), 40u);
  }
}

TEST(Ledger, ResetZeroes) {
  CostLedger led(2);
  led.charge(0, Phase::Reduce, 1.0, 1, 1);
  led.reset();
  EXPECT_DOUBLE_EQ(led.total_seconds(0), 0.0);
  EXPECT_EQ(led.aggregate_messages(), 0u);
}

// --- virtual comm clock semantics ----------------------------------------------

TEST(VirtualComm, ClockEqualsSumOfPhaseSeconds) {
  VirtualComm vc(4, flat_machine());
  vc.advance(2, Phase::Compute, 0.5);
  vc.advance(2, Phase::Shift, 0.25, 1, 10);
  EXPECT_DOUBLE_EQ(vc.clock(2), vc.ledger().total_seconds(2));
  EXPECT_DOUBLE_EQ(vc.max_clock(), 0.75);
}

TEST(VirtualComm, PermuteStepWaitsForSlowSender) {
  VirtualComm vc(2, flat_machine());
  vc.advance(0, Phase::Compute, 1.0);  // rank 0 is busy
  // Ring shift: 1 receives from 0, 0 receives from 1.
  vc.permute_step(Phase::Shift, [](int r) { return 1 - r; }, [](int) { return 1000.0; });
  const double msg = 1e-6 + 1e-9 * 1000.0;
  // Rank 1 had clock 0 but must wait for sender 0 at t=1.
  EXPECT_DOUBLE_EQ(vc.clock(1), 1.0 + msg);
  // Rank 0 receives from rank 1 (clock 0): max(1, 0) + msg.
  EXPECT_DOUBLE_EQ(vc.clock(0), 1.0 + msg);
  // The wait is attributed to the shift phase.
  EXPECT_DOUBLE_EQ(vc.ledger().seconds(1, Phase::Shift), 1.0 + msg);
}

TEST(VirtualComm, SelfSendIsFree) {
  VirtualComm vc(3, flat_machine());
  vc.permute_step(Phase::Shift, [](int r) { return r; }, [](int) { return 1e6; });
  EXPECT_DOUBLE_EQ(vc.max_clock(), 0.0);
  EXPECT_EQ(vc.ledger().aggregate_messages(), 0u);
}

TEST(VirtualComm, ZeroByteMessagesAreElided) {
  VirtualComm vc(2, flat_machine());
  vc.permute_step(Phase::Reassign, [](int r) { return 1 - r; }, [](int) { return 0.0; });
  EXPECT_DOUBLE_EQ(vc.max_clock(), 0.0);
  EXPECT_EQ(vc.ledger().aggregate_messages(), 0u);
}

TEST(VirtualComm, TeamCollectiveSynchronizesMembers) {
  VirtualComm vc(4, flat_machine());
  const auto g = Grid2d::make(4, 2);  // 2 teams of 2
  vc.advance(g.rank(1, 0), Phase::Compute, 2.0);  // one member of team 0 lags
  vc.team_broadcast(g, Phase::Broadcast, [](int) { return 1000.0; });
  const double t_coll = 1.0 * (1e-6 + 1e-9 * 1000.0);  // log2(2) rounds
  EXPECT_DOUBLE_EQ(vc.clock(g.rank(0, 0)), 2.0 + t_coll);
  EXPECT_DOUBLE_EQ(vc.clock(g.rank(1, 0)), 2.0 + t_coll);
  // Team 1 unaffected by team 0's laggard.
  EXPECT_DOUBLE_EQ(vc.clock(g.rank(0, 1)), t_coll);
}

TEST(VirtualComm, SynchronizeAlignsAllClocks) {
  VirtualComm vc(3, flat_machine());
  vc.advance(1, Phase::Compute, 5.0);
  vc.synchronize();
  for (int r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(vc.clock(r), 5.0);
}

TEST(VirtualComm, ResetClearsClocksAndLedger) {
  VirtualComm vc(2, flat_machine());
  vc.advance(0, Phase::Compute, 1.0, 5, 500);
  vc.reset();
  EXPECT_DOUBLE_EQ(vc.max_clock(), 0.0);
  EXPECT_EQ(vc.ledger().aggregate_messages(), 0u);
}

// --- primitives: data movement ---------------------------------------------------

TEST(Primitives, ShiftRowsRotatesEastward) {
  VirtualComm vc(8, flat_machine());
  const auto g = Grid2d::make(8, 2);  // 2 rows x 4 cols
  std::vector<int> bufs(8);
  std::iota(bufs.begin(), bufs.end(), 0);  // value = original rank
  shift_rows(vc, g, 1, bufs, [](int) { return 8.0; });
  // Rank (row, col) now holds the buffer of (row, col-1).
  for (int row = 0; row < 2; ++row) {
    for (int col = 0; col < 4; ++col) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(g.rank(row, col))], g.rank(row, (col + 3) % 4));
    }
  }
  // One message each, 8 bytes.
  EXPECT_EQ(vc.ledger().critical_messages(), 1u);
  EXPECT_EQ(vc.ledger().critical_bytes(), 8u);
}

TEST(Primitives, ShiftByZeroAndFullRingAreFree) {
  VirtualComm vc(4, flat_machine());
  const auto g = Grid2d::make(4, 1);
  std::vector<int> bufs{0, 1, 2, 3};
  shift_rows(vc, g, 0, bufs, [](int) { return 8.0; });
  shift_rows(vc, g, 4, bufs, [](int) { return 8.0; });
  EXPECT_EQ(bufs, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(vc.max_clock(), 0.0);
}

TEST(Primitives, SkewRowsShiftsByRowIndex) {
  VirtualComm vc(9, flat_machine());
  const auto g = Grid2d::make(9, 3);  // 3 rows x 3 cols
  std::vector<int> bufs(9);
  std::iota(bufs.begin(), bufs.end(), 0);
  std::vector<int> dist;
  skew_rows(vc, g, [](int row) { return row; }, bufs, [](int) { return 4.0; }, Phase::Skew, dist);
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) {
      // Holds the buffer from col - row.
      EXPECT_EQ(bufs[static_cast<std::size_t>(g.rank(row, col))],
                g.rank(row, (col - row + 3) % 3));
    }
  }
  // Row 0 shifted by zero: free.
  EXPECT_DOUBLE_EQ(vc.ledger().seconds(g.rank(0, 0), Phase::Skew), 0.0);
  EXPECT_GT(vc.ledger().seconds(g.rank(1, 0), Phase::Skew), 0.0);
}

TEST(Primitives, BroadcastTeamsCopiesLeaderBuffer) {
  VirtualComm vc(6, flat_machine());
  const auto g = Grid2d::make(6, 3);  // 3 rows x 2 teams
  std::vector<std::vector<int>> bufs(6);
  bufs[static_cast<std::size_t>(g.leader(0))] = {10};
  bufs[static_cast<std::size_t>(g.leader(1))] = {20};
  DataPlane<std::vector<int>> plane;
  broadcast_teams(vc, g, bufs, [](const std::vector<int>& b) { return b.size() * 4; },
                  Phase::Broadcast, plane);
  for (int row = 0; row < 3; ++row) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(g.rank(row, 0))], std::vector<int>{10});
    EXPECT_EQ(bufs[static_cast<std::size_t>(g.rank(row, 1))], std::vector<int>{20});
  }
  // ceil(log2(3)) = 2 messages charged along the critical path.
  EXPECT_EQ(vc.ledger().critical_messages(), 2u);
}

TEST(Primitives, ReduceTeamsCombinesIntoLeader) {
  VirtualComm vc(6, flat_machine());
  const auto g = Grid2d::make(6, 3);
  std::vector<int> bufs{1, 10, 2, 20, 4, 40};  // rank-major: rows x 2 cols
  DataPlane<int> plane;
  reduce_teams(vc, g, bufs, [](int) { return 4.0; }, [](int& acc, const int& in) { acc += in; },
               Phase::Reduce, plane);
  EXPECT_EQ(bufs[static_cast<std::size_t>(g.leader(0))], 1 + 2 + 4);
  EXPECT_EQ(bufs[static_cast<std::size_t>(g.leader(1))], 10 + 20 + 40);
}

TEST(Primitives, PermuteBuffersAppliesArbitraryPermutation) {
  VirtualComm vc(4, flat_machine());
  std::vector<int> bufs{0, 1, 2, 3};
  std::vector<int> scratch;
  // Receive from (r+2) mod 4.
  permute_buffers(vc, [](int r) { return (r + 2) % 4; }, bufs, scratch,
                  [](int) { return 16.0; }, Phase::Shift);
  EXPECT_EQ(bufs, (std::vector<int>{2, 3, 0, 1}));
  EXPECT_EQ(vc.ledger().critical_messages(), 1u);
}

TEST(Primitives, SingleRowGridBehavesAsRing) {
  VirtualComm vc(5, flat_machine());
  const auto g = Grid2d::make(5, 1);
  std::vector<int> bufs{0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) shift_rows(vc, g, 1, bufs, [](int) { return 4.0; });
  EXPECT_EQ(bufs, (std::vector<int>{0, 1, 2, 3, 4}));  // full cycle
  EXPECT_EQ(vc.ledger().critical_messages(), 5u);
}

// --- hop-aware latency -----------------------------------------------------------

TEST(VirtualComm, HopAwareLatencyChargesDistance) {
  auto m = flat_machine();
  m.alpha_hop = 1e-6;
  m.topology = std::make_shared<machine::Topology>(machine::Topology::ring(8));
  VirtualComm vc(8, m);
  const auto g = Grid2d::make(8, 1);
  std::vector<int> bufs(8, 0);
  shift_rows(vc, g, 3, bufs, [](int) { return 100.0; });
  // Ring distance 3: alpha + 3*alpha_hop + beta*w.
  EXPECT_DOUBLE_EQ(vc.max_clock(), 1e-6 + 3e-6 + 1e-9 * 100.0);
  vc.reset();
  shift_rows(vc, g, 7, bufs, [](int) { return 100.0; });
  // Distance 7 wraps to 1 hop on the ring.
  EXPECT_DOUBLE_EQ(vc.max_clock(), 1e-6 + 1e-6 + 1e-9 * 100.0);
}

TEST(VirtualComm, HopAwareFallsBackToBalancedTorus) {
  auto m = flat_machine();
  m.alpha_hop = 1e-6;
  m.topology = std::make_shared<machine::Topology>(machine::Topology::ring(4));  // wrong size
  VirtualComm vc(27, m);  // builds a 3x3x3 torus internally
  vc.permute_step(Phase::Shift, [](int r) { return (r + 1) % 27; }, [](int) { return 10.0; });
  // Neighbors in rank order are 1 torus hop apart along x (wrap included).
  EXPECT_GT(vc.max_clock(), 1e-6);
}

TEST(VirtualComm, ZeroAlphaHopIgnoresTopology) {
  auto m = flat_machine();
  m.topology = std::make_shared<machine::Topology>(machine::Topology::ring(8));
  VirtualComm vc(8, m);
  const auto g = Grid2d::make(8, 1);
  std::vector<int> bufs(8, 0);
  shift_rows(vc, g, 3, bufs, [](int) { return 100.0; });
  EXPECT_DOUBLE_EQ(vc.max_clock(), 1e-6 + 1e-9 * 100.0);
}

// --- whole machine collective ------------------------------------------------------

TEST(VirtualComm, WholeMachineCollectiveHitsHardwareTree) {
  auto m = machine::intrepid(/*use_hw_tree=*/true);
  VirtualComm vc(64, m);
  vc.whole_machine_collective(Phase::Broadcast, 1e6, false);
  EXPECT_NEAR(vc.max_clock(), 5e-6 + 3.5e-8 * 1e6, 1e-12);
}

}  // namespace
