// Host thread pool: correctness, determinism, and bitwise-identical
// engine results across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/ca_all_pairs.hpp"
#include "core/policy.hpp"
#include "decomp/partition.hpp"
#include "machine/presets.hpp"
#include "particles/init.hpp"
#include "support/parallel.hpp"

namespace {

using namespace canb;

// --- pool unit tests ------------------------------------------------------------

TEST(ThreadPool, SerialModeRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int sum = 0;
  pool.parallel_for(0, 100, [&](int i) { sum += i; });  // inline: no data race
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  std::mutex m;
  pool.parallel_for(5, 5, [&](int) {
    std::lock_guard<std::mutex> l(m);
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](int i) {
    std::lock_guard<std::mutex> l(m);
    calls += i;
  });
  EXPECT_EQ(calls, 7);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, [&](int i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50ll * (63 * 64 / 2));
}

TEST(ThreadPool, ChunkedVariantPartitionsContiguously) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<int, int>> chunks;
  pool.parallel_for_chunks(0, 103, [&](int b, int e) {
    std::lock_guard<std::mutex> l(m);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  int expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 103);
}

// --- parallel_tasks: the work-stealing scheduler --------------------------------

TEST(Scheduler, ModeNamesRoundTrip) {
  EXPECT_STREQ(to_string(SchedMode::kStatic), "static");
  EXPECT_STREQ(to_string(SchedMode::kStealing), "stealing");
  EXPECT_EQ(parse_sched_mode("static"), SchedMode::kStatic);
  EXPECT_EQ(parse_sched_mode("stealing"), SchedMode::kStealing);
  EXPECT_FALSE(parse_sched_mode("dynamic").has_value());
  EXPECT_FALSE(parse_sched_mode("").has_value());
}

TEST(Scheduler, TasksRunExactlyOnceUnderBothModes) {
  for (const SchedMode mode : {SchedMode::kStatic, SchedMode::kStealing}) {
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      pool.set_sched_mode(mode);
      std::vector<std::atomic<int>> hits(513);
      pool.parallel_tasks(513, [&](int t, int w) {
        ASSERT_GE(w, 0);
        ASSERT_LT(w, pool.thread_count());
        hits[static_cast<std::size_t>(t)]++;
      });
      for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1) << to_string(mode) << " threads=" << threads;
    }
  }
}

TEST(Scheduler, CostHintsCoverEveryTaskEvenWhenSkewed) {
  ThreadPool pool(4);
  pool.set_sched_mode(SchedMode::kStealing);
  // One giant task and a tail of tiny ones: the cost-weighted partition
  // must still hand every worker at least one task and lose none.
  std::vector<double> cost(64, 1.0);
  cost[0] = 1e6;
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_tasks(
      64, [&](int t, int) { hits[static_cast<std::size_t>(t)]++; }, cost.data());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ZeroAndNegativeTaskCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_tasks(0, [&](int, int) { ++calls; });
  pool.parallel_tasks(-3, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Scheduler, StatsCountCallsTasksAndWorkers) {
  ThreadPool pool(2);
  pool.set_sched_mode(SchedMode::kStealing);
  pool.reset_scheduler_stats();
  for (int round = 0; round < 3; ++round)
    pool.parallel_tasks(100, [&](int, int) {});
  const SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.tasks, 300u);
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  std::uint64_t sum = 0;
  for (const auto t : stats.tasks_per_worker) sum += t;
  EXPECT_EQ(sum, 300u);
  ASSERT_EQ(stats.busy_seconds.size(), 2u);
  ASSERT_EQ(stats.idle_seconds.size(), 2u);

  pool.reset_scheduler_stats();
  const SchedulerStats zeroed = pool.scheduler_stats();
  EXPECT_EQ(zeroed.calls, 0u);
  EXPECT_EQ(zeroed.tasks, 0u);
  EXPECT_EQ(zeroed.steals, 0u);
}

TEST(Scheduler, IdleSecondsChargeEndOfRegionWaits) {
  // Two workers, one sleeping task and one empty task: whoever runs the
  // empty task waits out the sleep — inside its own drain when it is a
  // pool worker, in the done wait when it is the calling thread. Either
  // way that wait is idle time.
  constexpr double kSleepSeconds = 0.05;
  for (const int sleeper : {0, 1}) {
    SCOPED_TRACE(::testing::Message() << "sleeping task " << sleeper);
    ThreadPool pool(2);
    int ran_by[2] = {-1, -1};
    pool.parallel_tasks(2, [&](int task, int worker) {
      ran_by[task] = worker;
      if (task == sleeper)
        std::this_thread::sleep_for(std::chrono::duration<double>(kSleepSeconds));
    });
    ASSERT_NE(ran_by[0], ran_by[1]) << "static chunks give each worker one task";
    const SchedulerStats stats = pool.scheduler_stats();
    const auto waiter = static_cast<std::size_t>(ran_by[1 - sleeper]);
    const auto busy = static_cast<std::size_t>(ran_by[sleeper]);
    EXPECT_GE(stats.busy_seconds[busy], kSleepSeconds);
    EXPECT_GE(stats.idle_seconds[waiter], 0.8 * kSleepSeconds);
  }
}

TEST(Scheduler, StealGrainClampsToOne) {
  ThreadPool pool(2);
  pool.set_steal_grain(0);
  EXPECT_EQ(pool.steal_grain(), 1);
  pool.set_steal_grain(-5);
  EXPECT_EQ(pool.steal_grain(), 1);
  pool.set_steal_grain(8);
  EXPECT_EQ(pool.steal_grain(), 8);
}

// The TSan target: many rounds of skewed task lists over a stealing pool,
// with per-task writes to disjoint slots and relaxed shared counters —
// exactly the access pattern the engines submit. A race in the deque
// windows, the dispatch flags, or the stats counters shows up here.
TEST(Scheduler, StealingStressManyRoundsDisjointWrites) {
  ThreadPool pool(4);
  pool.set_sched_mode(SchedMode::kStealing);
  const int tasks = 257;
  std::vector<double> cost(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t)
    cost[static_cast<std::size_t>(t)] = (t % 17 == 0) ? 400.0 : 1.0;  // spiky histogram
  std::vector<std::uint64_t> out(static_cast<std::size_t>(tasks), 0);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    for (const int grain : {1, 2, 4}) {
      pool.set_steal_grain(grain);
      pool.parallel_tasks(
          tasks,
          [&](int t, int) {
            // Disjoint per-task slot plus a relaxed shared counter: the two
            // sanctioned communication patterns under the determinism
            // contract.
            out[static_cast<std::size_t>(t)] += static_cast<std::uint64_t>(t) + 1;
            total.fetch_add(1, std::memory_order_relaxed);
          },
          cost.data());
    }
  }
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(200 * 3 * tasks));
  for (int t = 0; t < tasks; ++t)
    EXPECT_EQ(out[static_cast<std::size_t>(t)], 600ull * (static_cast<std::uint64_t>(t) + 1));
}

// --- engine determinism across thread counts --------------------------------------

TEST(ThreadPool, EngineResultsBitwiseIdenticalAcrossThreadCounts) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const auto box = particles::Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(96, box, 123, 0.02);

  auto run_with = [&](int threads) {
    Policy policy({box, particles::InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
    core::CaAllPairs<Policy> engine({16, 2, machine::laptop()}, std::move(policy),
                                    decomp::split_even(init, 8));
    if (threads > 1) engine.set_host_pool(std::make_shared<ThreadPool>(threads));
    engine.run(5);
    auto all = decomp::concat(engine.team_results());
    particles::sort_by_id(all);
    return all;
  };

  const auto serial = run_with(1);
  for (int threads : {2, 4}) {
    const auto parallel = run_with(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bitwise: each virtual rank's arithmetic is untouched by threading.
      EXPECT_EQ(parallel[i].px, serial[i].px) << i;
      EXPECT_EQ(parallel[i].py, serial[i].py) << i;
      EXPECT_EQ(parallel[i].vx, serial[i].vx) << i;
      EXPECT_EQ(parallel[i].fx, serial[i].fx) << i;
    }
  }
}

TEST(ThreadPool, LedgerIdenticalAcrossThreadCounts) {
  using Policy = core::RealPolicy<particles::InverseSquareRepulsion>;
  const auto box = particles::Box::reflective_2d(1.0);
  const auto init = particles::init_uniform(64, box, 9, 0.0);

  auto run_with = [&](int threads) {
    Policy policy({box, particles::InverseSquareRepulsion{1e-4, 1e-2}, 0.0, 1e-4});
    core::CaAllPairs<Policy> engine({16, 4, machine::laptop()}, std::move(policy),
                                    decomp::split_even(init, 4));
    if (threads > 1) engine.set_host_pool(std::make_shared<ThreadPool>(threads));
    engine.step();
    return std::pair{engine.comm().max_clock(), engine.comm().ledger().critical_bytes()};
  };
  const auto [clock1, bytes1] = run_with(1);
  const auto [clock4, bytes4] = run_with(4);
  EXPECT_EQ(clock1, clock4);
  EXPECT_EQ(bytes1, bytes4);
}

}  // namespace
