// Host-time spans recorded from outside the library: a timing payload
// policy that forwards to core::RealPolicy, and a timing transport that
// forwards to the socket endpoint. Both are inert: they call exactly what
// the wrapped object would have been called with, so the traced run's
// ledger and final state are bitwise equal to the untraced run's (the
// harness checks this on every traced run).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "vmpi/transport.hpp"

namespace perfbench {

/// One recorded interval. `parent` indexes the enclosing span (-1 for a
/// step span); every span carries the step it ran in (-1 outside steps).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int step = 0;
};

/// In-memory span store plus the pair counters the sweep reports. Spans
/// opened on a pool worker (no open span on that thread) are parented to
/// the current step span. Written out once, after the run.
class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  /// Opens a span under `parent`, or under the open step span when
  /// `parent` is -1. A span outside any step gets step -1.
  int open(const char* name, int parent) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    if (parent < 0) parent = step_span_;
    const int step = parent < 0 ? -1 : spans_[static_cast<std::size_t>(parent)].step;
    spans_.push_back({name, t, -1, parent, step});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }

  /// Opens the span of step `step`; spans opened until end_step() belong
  /// to it.
  void begin_step(int step) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({"step", t, -1, -1, step});
    step_span_ = static_cast<int>(spans_.size()) - 1;
  }
  void end_step() {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(step_span_)].end_ns = t;
    step_span_ = -1;
  }

  void count_pairs(std::uint64_t examined, std::uint64_t computed) {
    examined_.fetch_add(examined, std::memory_order_relaxed);
    computed_.fetch_add(computed, std::memory_order_relaxed);
  }
  std::uint64_t pairs_examined() const { return examined_.load(); }
  std::uint64_t pairs_computed() const { return computed_.load(); }

  /// Quiescent reads only (after the run).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_;
  std::mutex mu_;
  std::vector<Span> spans_;
  int step_span_ = -1;
  std::atomic<std::uint64_t> examined_{0};
  std::atomic<std::uint64_t> computed_{0};
};

/// The run's tracer. Global because RealPolicy's combine is static, so the
/// timing policy's combine has no object to carry one; null when untraced.
inline Tracer* g_tracer = nullptr;

/// RAII span on the calling thread, nested under the thread's open span.
class Scope {
 public:
  explicit Scope(const char* name) {
    if (g_tracer == nullptr) return;
    index_ = g_tracer->open(name, current_);
    saved_ = current_;
    current_ = index_;
  }
  ~Scope() {
    if (index_ < 0) return;
    g_tracer->close(index_);
    current_ = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  static inline thread_local int current_ = -1;
  int index_ = -1;
  int saved_ = -1;
};

/// core::RealPolicy with spans around the sweep, the integrator halves and
/// the team-reduce combine. The CA engines are templates over the policy,
/// so instantiating them over this type times those calls without any
/// change to the library.
template <class K>
class TimingPolicy {
  using Real = canb::core::RealPolicy<K>;

 public:
  using Buffer = typename Real::Buffer;
  using Config = typename Real::Config;
  static constexpr bool kIsPhantom = Real::kIsPhantom;

  explicit TimingPolicy(Config cfg) : real_(std::move(cfg)) {}

  static std::uint64_t bytes(const Buffer& b) noexcept { return Real::bytes(b); }
  static std::uint64_t count(const Buffer& b) noexcept { return Real::count(b); }

  canb::core::InteractStats interact(Buffer& resident, const Buffer& visitor,
                                     bool same_block) const {
    const Scope scope("particles.sweep");
    const auto stats = real_.interact(resident, visitor, same_block);
    if (g_tracer != nullptr) g_tracer->count_pairs(stats.examined, stats.computed);
    return stats;
  }

  static void combine(Buffer& acc, const Buffer& in) {
    const Scope scope("vmpi.combine");
    Real::combine(acc, in);
  }
  static void combine_range(Buffer& acc, const Buffer& in, std::size_t lo, std::size_t hi) {
    const Scope scope("vmpi.combine");
    Real::combine_range(acc, in, lo, hi);
  }

  void pre_force(const canb::particles::Integrator& integ, Buffer& b) const {
    const Scope scope("particles.integrate");
    real_.pre_force(integ, b);
  }
  void post_force(const canb::particles::Integrator& integ, Buffer& b) const {
    const Scope scope("particles.integrate");
    real_.post_force(integ, b);
  }

  const Config& config() const noexcept { return real_.config(); }
  const canb::particles::Box& box() const noexcept { return real_.box(); }
  double cutoff() const noexcept { return real_.cutoff(); }

 private:
  Real real_;
};

/// Application-level frame counters of the timing transport. Data frames
/// carry vmpi payloads; control frames use the reserved tag space
/// (telemetry snapshots, the end-of-run gather, reassign counts).
struct FrameCounts {
  std::uint64_t data_frames = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t control_bytes = 0;
  /// Telemetry snapshot bytes sent or received by this endpoint (the
  /// primary only receives them).
  std::uint64_t snapshot_bytes = 0;
};

/// A vmpi::Transport decorator: forwards every call to the wrapped endpoint
/// inside a span, and counts the frames it is handed.
class TimingTransport final : public canb::vmpi::Transport {
 public:
  explicit TimingTransport(std::shared_ptr<canb::vmpi::Transport> inner)
      : inner_(std::move(inner)) {}

  canb::vmpi::TransportKind kind() const noexcept override { return inner_->kind(); }
  int ranks() const noexcept override { return inner_->ranks(); }
  bool local(int rank) const noexcept override { return inner_->local(rank); }
  int groups() const noexcept override { return inner_->groups(); }
  int group() const noexcept override { return inner_->group(); }
  int owner_group(int rank) const noexcept override { return inner_->owner_group(rank); }

  void send(int src, int dst, std::uint64_t tag, std::span<const std::byte> payload) override {
    const Scope scope("transport.send");
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (tag < canb::vmpi::kReservedTagBase) {
        ++counts_.data_frames;
        counts_.data_bytes += payload.size();
      } else {
        ++counts_.control_frames;
        counts_.control_bytes += payload.size();
        if (is_snapshot(tag)) counts_.snapshot_bytes += payload.size();
      }
    }
    inner_->send(src, dst, tag, payload);
  }
  void recv(int src, int dst, std::uint64_t tag, canb::wire::Bytes& out) override {
    const Scope scope("transport.recv");
    inner_->recv(src, dst, tag, out);
    if (is_snapshot(tag)) {
      const std::lock_guard<std::mutex> lock(mu_);
      counts_.snapshot_bytes += out.size();
    }
  }
  void barrier() override {
    const Scope scope("transport.barrier");
    inner_->barrier();
  }
  canb::vmpi::TransportStats stats() const override { return inner_->stats(); }

  FrameCounts counts() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  /// The snapshot push's tag block (obs/snapshot.hpp): below the gather block.
  static bool is_snapshot(std::uint64_t tag) {
    return tag >= canb::vmpi::kReservedTagBase && tag < canb::vmpi::kGatherTagBase;
  }

  std::shared_ptr<canb::vmpi::Transport> inner_;
  mutable std::mutex mu_;
  FrameCounts counts_;
};

}  // namespace perfbench
