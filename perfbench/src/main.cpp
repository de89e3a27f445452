// The repository benchmark's runner binary: one workload run per process.
//
//   canb_perfbench --mode run       --workload W --seed S --seconds T --setup-reps R
//   canb_perfbench --mode reference --workload W --seed S --steps N
//   canb_perfbench --mode trace     --workload W --seed S --steps N [--spans-out F]
//
// `run` sets the workload up --setup-reps times through sim::Simulation
// (particle init to the end of the first step, forking and connecting the
// mesh where the workload has one), then times steps back to back for
// --seconds on the last set-up. `reference` runs the same problem on one
// thread with no transport for a fixed step count. `trace` runs the traced
// twin (traced_sim.hpp) for a fixed step count and reports the per-layer
// breakdown. Each prints one JSON object as its last stdout line; the
// harness (perfbench/run.py) compares them and reduces them to metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ca_all_pairs.hpp"
#include "core/ca_cutoff.hpp"
#include "mesh.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "particles/diagnostics.hpp"
#include "particles/reference.hpp"
#include "particles/simd/simd.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "traced_sim.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed steps the virtual-time metric averages over: a fixed count, so the
/// metric does not depend on how many steps the host managed in the window.
constexpr int kVirtualSteps = 16;
/// Timed steps after which the peak RSS is read, for the same reason: memory
/// that grows per step (the socket mesh's does) would otherwise make the
/// figure follow the host's speed.
constexpr int kRssSteps = 64;

struct Options {
  std::string mode;
  const Workload* workload = nullptr;
  std::uint64_t seed = 2013;
  double seconds = 0.0;  ///< timed window (run; required)
  int steps = 0;         ///< total steps including the first (reference, trace)
  int setup_reps = 0;    ///< set-ups, the last one timed (run; required)
  std::string spans_out;
};

// --- small utilities ------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Bitwise digest of the gathered state (every field of every particle).
std::uint64_t state_hash(const canb::particles::Block& b) {
  std::uint64_t h = kFnvBasis;
  for (const auto& p : b) {
    unsigned char bytes[sizeof(canb::particles::Particle)];
    std::memcpy(bytes, &p, sizeof p);
    h = fnv1a(h, bytes, sizeof bytes);
  }
  return h;
}

/// Bitwise digest of the ledger: every rank's every phase row.
std::uint64_t ledger_hash(const canb::vmpi::CostLedger& l) {
  std::uint64_t h = kFnvBasis;
  for (int r = 0; r < l.ranks(); ++r) {
    for (int ph = 0; ph < canb::vmpi::kPhaseCount; ++ph) {
      const double s = l.seconds(r, static_cast<canb::vmpi::Phase>(ph));
      h = fnv1a(h, &s, sizeof s);
    }
    const std::uint64_t counts[] = {l.messages(r), l.bytes(r), l.retries(r), l.timeouts(r)};
    h = fnv1a(h, counts, sizeof counts);
  }
  return h;
}

/// Critical-path virtual seconds so far (the largest rank total).
double critical_seconds(const canb::vmpi::CostLedger& l) {
  return l.total_seconds(l.critical_rank());
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is not
/// used: it survives exec, so it would report the launcher's peak when that
/// was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  CANB_REQUIRE(false, "no VmHWM line in /proc/self/status");
  return 0.0;
}

/// Relative force error of the gathered state against the serial O(n^2)
/// reference (cutoff-aware), the measure the test suite bounds by 2e-4.
double force_deviation(const Sim::Config& cfg, const canb::particles::Block& state) {
  const auto want = canb::particles::reference_forces(state, cfg.box, cfg.kernel, cfg.cutoff);
  return canb::particles::max_force_deviation(state, want);
}

using canb::obs::JsonWriter;

/// `"key":[v,...]`.
template <class T>
void write_list(JsonWriter& j, const std::string& key, const std::vector<T>& vs) {
  j.key(key).begin_array();
  for (const T& v : vs) j.value(v);
  j.end_array();
}

/// Build flavor and the host-execution defaults every workload runs with,
/// as the current object's "manifest" member. The build is always portable
/// (perfbench/CMakeLists.txt never adds -march=native).
void write_manifest(JsonWriter& j, const Workload& w) {
  const Sim::Config defaults{};
  j.key("manifest").begin_object();
  j.kv("build_type", CANB_PERFBENCH_BUILD_TYPE);
  j.kv("native_arch", false);
  j.kv("simd_active", canb::particles::simd::backend_name(canb::particles::simd::active()));
  j.kv("simd_max_supported",
       canb::particles::simd::backend_name(canb::particles::simd::max_supported()));
  j.kv("compiler", canb::obs::build_compiler());
  j.kv("git", canb::obs::build_git_describe());
  j.kv("engine", canb::particles::engine_name(defaults.engine));
  j.kv("scheduler", canb::to_string(defaults.sched));
  j.kv("data_plane", defaults.pooled_data_plane ? "pooled" : "legacy");
  j.kv("exec", w.groups > 1 ? canb::vmpi::exec_mode_name(defaults.exec) : "single-process");
  j.kv("tune", canb::sim::tune_mode_name(defaults.tune));
  j.kv("threads", w.threads);
  j.kv("groups", w.groups);
  j.end_object();
}

/// What one group's endpoint sent: frames and payload bytes. Besides the
/// engine's data, the frames carry every live-plane exchange (a snapshot of
/// the sender's telemetry registry) and the gathers, so the traced run must
/// match these counts to show that its live plane does what
/// Simulation::step does. Every frame a group receives was sent by a group,
/// so the sends of all groups cover the traffic.
struct Sent {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

Sent sent_by(const canb::vmpi::Transport& t) {
  const auto stats = t.stats();
  return {stats.frames_sent, stats.bytes_sent};
}

/// `"traffic":[[frames,bytes],...]`, one pair per group, group 0 first
/// (empty without a transport).
void write_traffic(JsonWriter& j, const std::vector<Sent>& per_group) {
  j.key("traffic").begin_array();
  for (const auto& s : per_group) j.begin_array().value(s.frames).value(s.bytes).end_array();
  j.end_array();
}

/// A forked group's end-of-run report to the primary: its peak RSS and what
/// it sent.
std::string group_report(double rss_mb, const Sent& sent) {
  return std::to_string(rss_mb) + ' ' + std::to_string(sent.frames) + ' ' +
         std::to_string(sent.bytes);
}

/// Folds the other groups' reports into the primary's figures: the peak RSS
/// becomes the maximum over groups, and their traffic follows its own.
void fold_reports(const std::vector<std::string>& reports, double& rss_mb,
                  std::vector<Sent>& traffic) {
  for (const auto& text : reports) {
    std::istringstream in(text);
    double rss = 0.0;
    Sent sent;
    in >> rss >> sent.frames >> sent.bytes;
    CANB_REQUIRE(!in.fail(), "malformed mesh group report: '" + text + "'");
    rss_mb = std::max(rss_mb, rss);
    traffic.push_back(sent);
  }
}

// --- the timed window -------------------------------------------------------

struct Window {
  std::vector<double> step_s;  ///< per-step wall time on this process
  double seconds = 0.0;        ///< window wall time (barrier-aligned on a mesh)
};

/// Steps back to back: `fixed_steps` of them, or, when that is negative,
/// until `seconds` have passed (at least kVirtualSteps). On a mesh the primary
/// decides and the other groups follow its step tokens, and the window is
/// barrier-aligned so it covers the whole mesh's work.
template <class StepFn>
Window timed_window(Mesh* mesh, int fixed_steps, double seconds, StepFn&& step) {
  if (mesh) mesh->transport()->barrier();
  Window w;
  const auto t0 = Clock::now();
  for (int k = 0;; ++k) {
    bool go = false;
    if (fixed_steps >= 0) {
      go = k < fixed_steps;
    } else if (mesh == nullptr || mesh->primary()) {
      go = k < kVirtualSteps || seconds_since(t0) < seconds;
      if (mesh) mesh->send_token(go);
    } else {
      go = mesh->recv_token();
    }
    if (!go) break;
    const auto s0 = Clock::now();
    step(k);
    w.step_s.push_back(seconds_since(s0));
    if ((k + 1) % 64 == 0 && (mesh == nullptr || mesh->primary())) {
      std::printf("progress %d\n", k + 1);
      std::fflush(stdout);
    }
  }
  if (mesh) mesh->transport()->barrier();
  w.seconds = seconds_since(t0);
  return w;
}

// --- run / reference --------------------------------------------------------

struct RunOutcome {
  std::vector<double> setup_s;
  Window window;
  int steps_total = 0;
  double force_deviation = -1.0;
  double virtual_step_ms = 0.0;
  std::uint64_t state_hash = 0;
  std::uint64_t ledger_hash = 0;
  double peak_rss_mb = 0.0;  ///< after set-up and min(kRssSteps, timed) steps
  std::vector<Sent> traffic;  ///< per group, read after the final gather
};

/// One set-up through sim::Simulation; `measured` continues into the timed
/// window and the checks.
void run_once(const Workload& w, const Options& o, bool measured, RunOutcome& out) {
  const auto t0 = Clock::now();
  std::unique_ptr<Mesh> mesh;
  if (w.groups > 1) mesh = std::make_unique<Mesh>(w.groups, w.p);
  const bool primary = mesh == nullptr || mesh->primary();
  {
    Sim::Config cfg = make_config(w, mesh ? mesh->transport() : nullptr);
    auto initial = make_particles(w, cfg.box, o.seed);
    Sim sim(std::move(cfg), std::move(initial));
    if (w.threads > 1) sim.set_host_pool(std::make_shared<canb::ThreadPool>(w.threads));
    sim.step();
    out.setup_s.push_back(seconds_since(t0));
    if (measured) {
      const auto first = sim.gather();
      if (primary) out.force_deviation = force_deviation(sim.config(), first);
      const auto& ledger = sim.comm().ledger();
      const double v0 = critical_seconds(ledger);
      double v1 = v0;
      double rss = 0.0;
      const int fixed_steps = o.steps > 0 ? o.steps - 1 : -1;
      out.window = timed_window(mesh.get(), fixed_steps, o.seconds, [&](int k) {
        sim.step();
        if (k + 1 == kVirtualSteps) v1 = critical_seconds(ledger);
        if (k + 1 == kRssSteps) rss = peak_rss_mb();
      });
      const int timed = static_cast<int>(out.window.step_s.size());
      if (timed < kVirtualSteps) v1 = critical_seconds(ledger);
      out.peak_rss_mb = timed < kRssSteps ? peak_rss_mb() : rss;
      out.virtual_step_ms = (v1 - v0) / std::max(1, std::min(timed, kVirtualSteps)) * 1e3;
      out.state_hash = state_hash(sim.gather());
      out.ledger_hash = ledger_hash(ledger);
      out.steps_total = sim.steps_taken();
      if (mesh) out.traffic = {sent_by(*mesh->transport())};
    }
  }
  if (mesh) {
    const Sent own = out.traffic.empty() ? Sent{} : out.traffic.front();
    const auto reports = mesh->finish(group_report(out.peak_rss_mb, own));
    if (measured) fold_reports(reports, out.peak_rss_mb, out.traffic);
  }
}

std::string run_mode(const Options& o) {
  const bool reference = o.mode == "reference";
  const Workload w = reference ? reference_of(*o.workload) : *o.workload;
  CANB_REQUIRE(!reference || o.steps > 0, "--mode reference needs --steps");
  const int reps = reference ? 1 : o.setup_reps;
  RunOutcome out;
  for (int rep = 0; rep < reps; ++rep) run_once(w, o, rep + 1 == reps, out);
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.kv("mode", o.mode);
  j.kv("workload", w.name);
  j.kv("seed", static_cast<std::uint64_t>(o.seed));
  j.kv("self_reference", is_reference(w));
  j.kv("steps_total", out.steps_total);
  j.kv("window_s", out.window.seconds);
  write_list(j, "step_s", out.window.step_s);
  write_list(j, "setup_s", out.setup_s);
  j.kv("peak_rss_mb", out.peak_rss_mb);
  j.kv("virtual_step_ms", out.virtual_step_ms);
  j.kv("force_deviation", out.force_deviation);
  j.kv("state_hash", hex(out.state_hash));
  j.kv("ledger_hash", hex(out.ledger_hash));
  write_traffic(j, out.traffic);
  write_manifest(j, w);
  j.end_object();
  return os.str();
}

// --- trace ------------------------------------------------------------------

/// Cumulative counters read between steps (every pool and transport is
/// quiescent there).
struct Counters {
  std::uint64_t examined = 0;
  std::uint64_t computed = 0;
  std::uint64_t crit_msgs = 0;
  std::uint64_t crit_bytes = 0;
  double crit_seconds = 0.0;
  FrameCounts frames;
  std::uint64_t retransmits = 0;
  std::vector<double> busy;  ///< per pool worker
  std::vector<double> idle;
  std::uint64_t steals = 0;
  std::uint64_t tasks = 0;
};

/// Per-(rank, phase) virtual seconds, for the per-phase breakdown.
std::vector<double> phase_seconds(const canb::vmpi::CostLedger& l) {
  std::vector<double> s;
  for (int r = 0; r < l.ranks(); ++r)
    for (int ph = 0; ph < canb::vmpi::kPhaseCount; ++ph)
      s.push_back(l.seconds(r, static_cast<canb::vmpi::Phase>(ph)));
  return s;
}

/// Max over ranks of one phase's virtual seconds between two snapshots.
double phase_max_delta(const std::vector<double>& a, const std::vector<double>& b,
                       canb::vmpi::Phase phase) {
  double m = 0.0;
  for (std::size_t i = static_cast<std::size_t>(phase); i < a.size();
       i += canb::vmpi::kPhaseCount)
    m = std::max(m, b[i] - a[i]);
  return m;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Per-step span totals of the timed steps.
struct SpanTotals {
  std::map<std::string, double> seconds;  ///< summed duration by span name
  std::map<std::string, std::uint64_t> calls;
  double obs_seconds = 0.0;    ///< top-level "obs.*" spans
  double sweep_union = 0.0;    ///< wall time covered by at least one sweep
  double wall = 0.0;           ///< summed step spans
  double self = 0.0;           ///< step wall minus the union of its children
  std::uint64_t outside = 0;   ///< children not inside their step span
};

double union_length(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += static_cast<double>(hi - lo);
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += static_cast<double>(hi - lo);
  return total * 1e-9;
}

SpanTotals analyze_spans(const std::vector<Span>& spans, int first_step) {
  std::map<int, int> step_span;
  std::map<int, std::vector<int>> children;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    const auto& s = spans[static_cast<std::size_t>(i)];
    if (s.step < first_step) continue;
    if (std::string_view(s.name) == "step") {
      step_span[s.step] = i;
    } else {
      children[s.step].push_back(i);
    }
  }
  SpanTotals t;
  for (const auto& [step, si] : step_span) {
    const auto& st = spans[static_cast<std::size_t>(si)];
    std::vector<std::pair<std::int64_t, std::int64_t>> all;
    std::vector<std::pair<std::int64_t, std::int64_t>> sweeps;
    for (int ci : children[step]) {
      const auto& c = spans[static_cast<std::size_t>(ci)];
      if (c.start_ns < st.start_ns || c.end_ns > st.end_ns || c.end_ns < c.start_ns) ++t.outside;
      const std::int64_t a = std::max(c.start_ns, st.start_ns);
      const std::int64_t b = std::min(c.end_ns, st.end_ns);
      all.emplace_back(a, b);
      const std::string name = c.name;
      t.seconds[name] += static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
      ++t.calls[name];
      if (name == "particles.sweep") sweeps.emplace_back(a, b);
      if (name.rfind("obs.", 0) == 0 && c.parent == si)
        t.obs_seconds += static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
    }
    const double wall = static_cast<double>(st.end_ns - st.start_ns) * 1e-9;
    t.wall += wall;
    t.self += wall - union_length(all);
    t.sweep_union += union_length(sweeps);
  }
  return t;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  CANB_REQUIRE(out.good(), "cannot open --spans-out file: " + path);
  out << "name,start_ns,end_ns,parent,step\n";
  for (const auto& s : spans)
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent << ',' << s.step
        << '\n';
}

template <class Engine>
std::string trace_with(const Workload& w, const Options& o) {
  CANB_REQUIRE(o.steps >= 2, "--mode trace needs --steps >= 2");
  Tracer tracer;
  g_tracer = &tracer;
  const auto t0 = Clock::now();
  std::unique_ptr<Mesh> mesh;
  if (w.groups > 1) mesh = std::make_unique<Mesh>(w.groups, w.p);
  const double mesh_s = seconds_since(t0);
  const bool primary = mesh == nullptr || mesh->primary();
  std::shared_ptr<TimingTransport> transport;
  if (mesh) transport = std::make_shared<TimingTransport>(mesh->transport());

  std::ostringstream os;
  JsonWriter j(os);
  std::vector<Sent> traffic;
  {
    Sim::Config cfg = make_config(w, transport);
    auto t = Clock::now();
    auto initial = make_particles(w, cfg.box, o.seed);
    const double init_s = seconds_since(t);
    t = Clock::now();
    TracedSim<Engine> sim(std::move(cfg), std::move(initial));
    if (w.threads > 1) sim.set_host_pool(std::make_shared<canb::ThreadPool>(w.threads));
    const double build_s = seconds_since(t);
    t = Clock::now();
    tracer.begin_step(1);
    sim.step();
    tracer.end_step();
    const double first_step_s = seconds_since(t);
    const double deviation = force_deviation(make_config(w, nullptr), sim.gather());

    const auto& ledger = sim.comm().ledger();
    auto snapshot = [&] {
      Counters c;
      c.examined = tracer.pairs_examined();
      c.computed = tracer.pairs_computed();
      c.crit_msgs = ledger.critical_messages();
      c.crit_bytes = ledger.critical_bytes();
      c.crit_seconds = critical_seconds(ledger);
      if (transport) {
        c.frames = transport->counts();
        c.retransmits = transport->stats().retransmits;
      }
      if (auto* pool = sim.pool()) {
        const auto s = pool->scheduler_stats();
        c.busy = s.busy_seconds;
        c.idle = s.idle_seconds;
        c.steals = s.steals;
        c.tasks = s.tasks;
      }
      return c;
    };
    std::vector<std::uint64_t> examined, computed, crit_msgs, crit_bytes, data_frames,
        data_bytes, control_frames, control_bytes;
    std::vector<double> virtual_s;
    const Counters start = snapshot();
    const auto phases0 = phase_seconds(ledger);
    Counters prev = start;
    const Window win = timed_window(mesh.get(), o.steps - 1, 0.0, [&](int k) {
      tracer.begin_step(k + 2);
      sim.step();
      tracer.end_step();
      const Counters now = snapshot();
      examined.push_back(now.examined - prev.examined);
      computed.push_back(now.computed - prev.computed);
      crit_msgs.push_back(now.crit_msgs - prev.crit_msgs);
      crit_bytes.push_back(now.crit_bytes - prev.crit_bytes);
      virtual_s.push_back(now.crit_seconds - prev.crit_seconds);
      data_frames.push_back(now.frames.data_frames - prev.frames.data_frames);
      data_bytes.push_back(now.frames.data_bytes - prev.frames.data_bytes);
      control_frames.push_back(now.frames.control_frames - prev.frames.control_frames);
      control_bytes.push_back(now.frames.control_bytes - prev.frames.control_bytes);
      prev = now;
    });
    const Counters& end = prev;
    const auto phases1 = phase_seconds(ledger);
    const double n = static_cast<double>(win.step_s.size());
    const auto state = sim.gather();

    const SpanTotals spans = analyze_spans(tracer.spans(), 2);
    auto span_s = [&](const char* name) {
      const auto it = spans.seconds.find(name);
      return it == spans.seconds.end() ? 0.0 : it->second;
    };
    auto span_calls = [&](const char* name) {
      const auto it = spans.calls.find(name);
      return it == spans.calls.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double sweep_s = span_s("particles.sweep");
    const double ex = static_cast<double>(end.examined - start.examined);
    const double cp = static_cast<double>(end.computed - start.computed);
    std::vector<double> busy(end.busy.size()), idle(end.idle.size());
    for (std::size_t i = 0; i < busy.size(); ++i) {
      busy[i] = end.busy[i] - start.busy[i];
      idle[i] = end.idle[i] - start.idle[i];
    }
    const double busy_total = sum(busy);
    const double busy_max = busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
    const double vms = 1e3 / n;
    j.begin_object();
    j.kv("mode", "trace");
    j.kv("workload", w.name);
    j.kv("seed", static_cast<std::uint64_t>(o.seed));
    j.kv("steps_total", o.steps);
    j.kv("window_s", win.seconds);
    j.kv("step_wall_s", spans.wall / n);
    j.kv("spans", static_cast<std::uint64_t>(tracer.spans().size()));
    j.kv("spans_outside_step", spans.outside);
    j.kv("force_deviation", deviation);
    j.kv("state_hash", hex(state_hash(state)));
    j.kv("ledger_hash", hex(ledger_hash(ledger)));
    if (transport) traffic.push_back(sent_by(*transport));
    j.key("layers").begin_object();
    j.kv("particles.sweep_s", sweep_s / n);
    j.kv("particles.sweep_share", spans.sweep_union / spans.wall);
    j.kv("particles.pairs_examined", ex / n);
    j.kv("particles.pairs_computed", cp / n);
    j.kv("particles.computed_ratio", ex > 0 ? cp / ex : 0.0);
    j.kv("particles.pair_rate_mps", sweep_s > 0 ? cp / sweep_s * 1e-6 : 0.0);
    j.kv("particles.integrate_s", span_s("particles.integrate") / n);
    j.kv("vmpi.combine_s", span_s("vmpi.combine") / n);
    j.kv("vmpi.combine_calls", span_calls("vmpi.combine") / n);
    j.kv("vmpi.crit_msgs", static_cast<double>(end.crit_msgs - start.crit_msgs) / n);
    j.kv("vmpi.crit_bytes", static_cast<double>(end.crit_bytes - start.crit_bytes) / n);
    j.kv("vmpi.virtual_compute_ms",
         phase_max_delta(phases0, phases1, canb::vmpi::Phase::Compute) * vms);
    j.kv("vmpi.virtual_shift_ms", phase_max_delta(phases0, phases1, canb::vmpi::Phase::Shift) * vms);
    j.kv("vmpi.virtual_reduce_ms",
         phase_max_delta(phases0, phases1, canb::vmpi::Phase::Reduce) * vms);
    j.kv("vmpi.virtual_reassign_ms",
         phase_max_delta(phases0, phases1, canb::vmpi::Phase::Reassign) * vms);
    j.kv("transport.send_s", span_s("transport.send") / n);
    j.kv("transport.recv_wait_s", span_s("transport.recv") / n);
    j.kv("transport.barrier_s", span_s("transport.barrier") / n);
    j.kv("transport.frames",
         static_cast<double>(end.frames.data_frames - start.frames.data_frames) / n);
    j.kv("transport.bytes", static_cast<double>(end.frames.data_bytes - start.frames.data_bytes) / n);
    j.kv("transport.control_frames",
         static_cast<double>(end.frames.control_frames - start.frames.control_frames) / n);
    j.kv("transport.control_bytes",
         static_cast<double>(end.frames.control_bytes - start.frames.control_bytes) / n);
    j.kv("transport.retransmits", static_cast<double>(end.retransmits - start.retransmits) / n);
    j.kv("sched.busy_s", busy_total / n);
    j.kv("sched.idle_s", sum(idle) / n);
    j.kv("sched.imbalance", busy_total > 0 ? busy_max / (busy_total / busy.size()) : 1.0);
    j.kv("sched.steals", static_cast<double>(end.steals - start.steals) / n);
    j.kv("sched.tasks", static_cast<double>(end.tasks - start.tasks) / n);
    j.kv("obs.publish_s", spans.obs_seconds / n);
    j.kv("obs.snapshot_bytes",
         static_cast<double>(end.frames.snapshot_bytes - start.frames.snapshot_bytes) / n);
    j.kv("core.step_self_s", spans.self / n);
    j.kv("setup.init_s", init_s);
    j.kv("setup.build_s", build_s);
    j.kv("setup.mesh_s", mesh_s);
    j.kv("setup.first_step_s", first_step_s);
    j.end_object();
    j.key("exact").begin_object();
    write_list(j, "pairs_examined", examined);
    write_list(j, "pairs_computed", computed);
    write_list(j, "crit_msgs", crit_msgs);
    write_list(j, "crit_bytes", crit_bytes);
    write_list(j, "virtual_step_s", virtual_s);
    write_list(j, "transport_frames", data_frames);
    write_list(j, "transport_bytes", data_bytes);
    write_list(j, "control_frames", control_frames);
    write_list(j, "control_bytes", control_bytes);
    j.end_object();
  }
  transport.reset();
  if (mesh) {
    const Sent own = traffic.empty() ? Sent{} : traffic.front();
    double rss_mb = 0.0;  // the traced run does not report memory
    fold_reports(mesh->finish(group_report(0.0, own)), rss_mb, traffic);
  }
  write_traffic(j, traffic);
  j.end_object();
  g_tracer = nullptr;
  if (primary && !o.spans_out.empty()) write_spans(o.spans_out, tracer.spans());
  return os.str();
}

std::string trace_mode(const Options& o) {
  const Workload& w = *o.workload;
  if (w.method == canb::sim::Method::CaAllPairs)
    return trace_with<canb::core::CaAllPairs<TracedPolicy>>(w, o);
  return trace_with<canb::core::CaCutoff<TracedPolicy>>(w, o);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    CANB_REQUIRE(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--mode") {
      o.mode = val;
    } else if (key == "--workload") {
      o.workload = find_workload(val);
      CANB_REQUIRE(o.workload != nullptr, "unknown workload: " + val);
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--steps") {
      o.steps = std::stoi(val);
    } else if (key == "--setup-reps") {
      o.setup_reps = std::stoi(val);
    } else if (key == "--spans-out") {
      o.spans_out = val;
    } else {
      CANB_REQUIRE(false, "unknown option: " + key);
    }
  }
  CANB_REQUIRE(o.workload != nullptr, "--workload is required");
  CANB_REQUIRE(o.mode == "run" || o.mode == "reference" || o.mode == "trace",
               "--mode must be run, reference or trace");
  CANB_REQUIRE(o.mode != "run" || (o.seconds > 0.0 && o.setup_reps >= 1),
               "--mode run needs --seconds > 0 and --setup-reps >= 1");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto o = perfbench::parse(argc, argv);
    const std::string out =
        o.mode == "trace" ? perfbench::trace_mode(o) : perfbench::run_mode(o);
    std::cout << out << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "canb_perfbench: " << e.what() << "\n";
    return 1;
  }
}
