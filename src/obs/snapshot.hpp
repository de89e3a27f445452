// Wire-serializable MetricsRegistry snapshots and the mesh aggregator.
//
// Under the socket transport every OS process (rank group) runs the same
// SPMD schedule, so the *virtual-cost* families (canb_messages_total,
// canb_bytes_total, per-rank clock gauges, ...) are identical replicas in
// every process. The transport, scheduler, and host-phase families are
// genuinely per-process, though: each group has its own fabric counters
// and its own host pool. Aggregation therefore ships only the
// PROCESS-LOCAL families (process_local_metric) from each non-zero group
// to group 0, where they merge into group 0's registry: counters and
// histograms sum (bucket-wise; edges must match), gauges gain a {"group"}
// label when they don't already carry one. Series published by a Telemetry
// with set_group() already carry disjoint {"group"} labels, so the merged
// view keeps one series per group AND the Prometheus sum over the group
// label equals the whole-mesh total.
//
// Snapshot frames ride the regular transport on a reserved tag range
// (vmpi::kReservedTagBase) that VirtualComm's incrementing tag allocator
// can never collide with. They move strictly *after* every virtual cost of
// the step is charged (charge-before-move), so pushing telemetry is
// bitwise-inert to clocks, ledgers, traces, and trajectories.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "support/wire.hpp"
#include "vmpi/transport.hpp"

namespace canb::obs {

/// True for families whose values are per-OS-process under the SPMD socket
/// arm (fabric counters, host scheduler, host data plane seconds). False
/// for the virtual-cost replicas, which every group computes identically
/// and only group 0 may export.
bool process_local_metric(std::string_view family_name) noexcept;

/// The reserved transport tag for group `group`'s snapshot flow.
inline constexpr std::uint64_t snapshot_tag(int group) noexcept {
  return vmpi::kReservedTagBase + static_cast<std::uint64_t>(group);
}

/// A decoded snapshot: which group pushed it, at which step boundary, and
/// the (filtered) registry contents it carried.
struct RegistrySnapshot {
  int group = 0;
  std::uint64_t step = 0;
  MetricsRegistry metrics;
};

/// Serializes `reg` (filtered to process-local families unless
/// `process_local_only` is false) into a framed snapshot.
void snapshot_to_bytes(const MetricsRegistry& reg, int group, std::uint64_t step,
                       wire::Bytes& out, bool process_local_only = true);

/// Inverse of snapshot_to_bytes; the frame must be consumed exactly.
RegistrySnapshot snapshot_from_bytes(std::span<const std::byte> in);

/// Merges `src` into `dst`: counters inc by the source value, histograms
/// add bucket-wise (identical edges required), gauges are set — gaining a
/// {"group": group_label} label when `group_label` is non-empty and the
/// series does not already carry a "group" key. merge(serialize(A),
/// serialize(B)) equals the in-process merge (property-tested).
void merge_registry(MetricsRegistry& dst, const MetricsRegistry& src,
                    const std::string& group_label = {});

/// Step-boundary snapshot exchange over a multi-group transport.
///
/// The protocol is SPMD-lockstep like everything else on the socket arm:
/// every group calls exchange() at the same boundaries (each step, plus
/// once at finalize). Non-zero groups serialize their process-local
/// families and push one frame to group 0; group 0 blocking-receives
/// exactly groups-1 frames and keeps the *latest* snapshot per group
/// (snapshots carry cumulative registry state, so repeated pushes replace,
/// never sum). merged() then folds the remote snapshots over a base
/// registry on demand.
class MeshAggregator {
 public:
  /// `transport` must be multi-endpoint capable (groups() >= 1); the
  /// aggregator derives its own group id and every group's push rank
  /// (the lowest rank each endpoint owns) from the transport geometry.
  explicit MeshAggregator(std::shared_ptr<vmpi::Transport> transport);

  int group() const noexcept { return group_; }
  int groups() const noexcept { return groups_; }
  bool primary() const noexcept { return group_ == 0; }

  /// One symmetric exchange; see the class comment for the call contract.
  /// A deadlock here means some group skipped a boundary.
  void exchange(const MetricsRegistry& local, std::uint64_t step);

  /// Base registry plus the latest snapshot from every remote group.
  MetricsRegistry merged(const MetricsRegistry& base) const;

  /// Exchanges completed (both sides count symmetrically).
  std::uint64_t exchanges() const noexcept { return exchanges_; }
  /// Latest decoded snapshots by remote group id (primary side).
  const std::map<int, RegistrySnapshot>& latest() const noexcept { return latest_; }

 private:
  std::shared_ptr<vmpi::Transport> transport_;
  int group_ = 0;
  int groups_ = 1;
  std::vector<int> push_rank_;  ///< lowest rank owned by each group
  std::map<int, RegistrySnapshot> latest_;
  wire::Bytes buf_;
  std::uint64_t exchanges_ = 0;
};

}  // namespace canb::obs
