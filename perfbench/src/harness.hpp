// Shared harness for the repository benchmark drivers (pb_volatile,
// pb_durable).
//
// Everything here measures the library from the outside: the drivers time
// their own calls into public entry points (Backend::execute, the Txn::step
// they hand in, the Ctx that step receives, Worker::stats(), the
// HtmRuntime counters) and never reach into library internals.
//
//  - Untraced runs time execute() call-to-return only; those numbers are
//    the end-to-end metrics.
//  - Traced runs additionally wrap Txn::step and the Ctx it receives, diff
//    Worker::stats() around every execute() to learn which path committed,
//    and record spans (execute -> attempt -> segment -> sampled Ctx
//    access). All wrapper state lives in benchmark-owned thread-local
//    storage: the Txn locals blob is rolled back by the framework on every
//    abort, so nothing the wrapper counts may live there.
//
// The last line of stdout is the result object the benchmark contract asks
// for; every line before it is a human-readable detail line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runtime.hpp"
#include "tm/api.hpp"
#include "tm/backend.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace pb {

using namespace phtm;

/// Repetitions per run, each with its own set-up. A traced run alternates
/// untraced (overhead baseline) and traced repetitions.
constexpr unsigned kReps = 8;

inline bool traced_rep(bool trace, unsigned rep) { return trace && rep % 2 == 1; }

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secs_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Independent sub-seed of the run's --seed for stream `a`, item `b`.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return mix64(seed * 0x9e3779b97f4a7c15ull + mix64(a * 0x100000001b3ull + b + 1));
}

// --------------------------------------------------------------------------
// Command line
// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;  ///< span file (traced runs only); empty = none
};

[[noreturn]] inline void usage(const char* prog, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               prog, why, prog);
  std::exit(2);
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(argv[0], ("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage(argv[0], "bad --seed");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0) || a.seconds > 120)
        usage(argv[0], "bad --seconds (want 0 < S <= 120)");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage(argv[0], "bad --trace (want 0 or 1)");
      a.trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(argv[0], ("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0)
    usage(argv[0], "--workload, --seed and --seconds are required");
  return a;
}

// --------------------------------------------------------------------------
// Exact order statistics
// --------------------------------------------------------------------------

/// Samples needed beyond a percentile before it may be printed.
constexpr double kMinTail = 10.0;

/// True when `n` samples leave at least kMinTail of them above quantile q.
inline bool tail_ok(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >= kMinTail;
}

/// Nearest-rank quantile of `v` (reorders v). Exact, no bucketing.
inline std::uint64_t quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Process peak resident set (VmHWM), MB.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kb / 1024.0;
}

// --------------------------------------------------------------------------
// Report: detail lines, correctness, and the final result object
// --------------------------------------------------------------------------

/// A contract metric. The driver prints only the metrics it computes;
/// run.py checks their names and units against BENCHMARK.json, the one
/// list of metrics, and fills in the per-layer ones a workload does not
/// reach.
struct Metric {
  double value = 0;
  const char* unit = "";
};

/// Per-layer metrics by name.
using Layers = std::map<std::string, Metric>;

class Report {
 public:
  std::uint64_t attempted = 0;

  /// A failed correctness check: the run's result reads correct=false.
  void fail(const std::string& why) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable detail line.
  template <typename... A>
  void note(const char* fmt, A... a) {
    std::printf("  ");
    std::printf(fmt, a...);
    std::printf("\n");
  }

  /// Percentile q of `ns` samples, scaled by 1/`div` (ns -> us: 1000). The
  /// value is printed with its sample count only when at least kMinTail
  /// samples lie beyond it; otherwise it is withheld and 0 is returned.
  double pct(const std::string& name, std::vector<std::uint64_t>& ns,
             double q, double div, const char* unit) {
    const std::size_t n = ns.size();
    if (!tail_ok(n, q)) {
      std::printf("  %-36s withheld (n=%zu, fewer than %.0f samples beyond p%g)\n",
                  name.c_str(), n, kMinTail, q * 100);
      return 0;
    }
    const double v = static_cast<double>(quantile(ns, q)) / div;
    std::printf("  %-36s %12.3f %-5s (p%g of n=%zu, %zu beyond)\n", name.c_str(), v,
                unit, q * 100, n,
                static_cast<std::size_t>(static_cast<double>(n) * (1.0 - q)));
    return v;
  }

  /// Set a contract metric (printed in the final object).
  void metric(const std::string& name, double v, const char* unit) {
    if (!std::isfinite(v)) {
      fail("metric " + name + " is not finite");
      v = 0;
    }
    values_[name] = Metric{v, unit};
  }

  /// Print the final result line with every metric set.
  void emit() {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted < 1 ? 1 : attempted,
                failed_);
    bool first = true;
    for (const auto& [name, m] : values_) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), m.value, m.unit);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> values_;
};

/// Copy the layer values into the report's contract metrics and print them.
inline void emit_layers(Report& r, const Layers& L) {
  for (const auto& [name, m] : L) {
    r.note("%-52s %14.6g %s", name.c_str(), m.value, m.unit);
    r.metric(name, m.value, m.unit);
  }
}

/// Windowed figures of a timed region. The region is cut into windows of a
/// fixed length (a durable batch is one window); each window yields its
/// throughput and, when it holds enough samples, its execute() p50 and
/// p99. A run reports the median window, so a burst of host noise shorter
/// than half the run cannot move its figures.
class WindowStats {
 public:
  /// One window: `ns` are its execute() latencies (reordered), `secs` its
  /// length.
  void add(std::vector<std::uint64_t>& ns, double secs) {
    tput_.push_back(static_cast<double>(ns.size()) / secs);
    if (!tail_ok(ns.size(), 0.99)) {
      ++short_;
      return;
    }
    min_n_ = min_n_ == 0 ? ns.size() : std::min(min_n_, ns.size());
    p50_.push_back(static_cast<double>(quantile(ns, 0.50)) / 1e3);
    p99_.push_back(static_cast<double>(quantile(ns, 0.99)) / 1e3);
  }

  /// Print the summary and set commits_per_s, txn_p50_us and txn_p99_us.
  void report(Report& r) const {
    r.note("%zu windows; %zu had too few samples for p99 and are left out of "
           "the latency medians; every p99 used had n >= %zu",
           tput_.size(), short_, min_n_);
    r.check(!p99_.empty() && short_ * 4 <= tput_.size(),
            "too many windows without enough samples for p99");
    const double t = median(tput_), p50 = median(p50_), p99 = median(p99_);
    r.note("commits_per_s %.1f, txn_p50_us %.3f, txn_p99_us %.3f (median window)", t,
           p50, p99);
    r.metric("commits_per_s", t, "1/s");
    r.metric("txn_p50_us", p50, "us");
    r.metric("txn_p99_us", p99, "us");
  }

 private:
  std::vector<double> tput_, p50_, p99_;
  std::size_t short_ = 0;
  std::size_t min_n_ = 0;
};

// --------------------------------------------------------------------------
// StatSheet and HtmRuntime arithmetic
// --------------------------------------------------------------------------

/// Field-wise `a - b` for two snapshots of one monotone sheet.
inline StatSheet sheet_delta(const StatSheet& a, const StatSheet& b) {
  StatSheet d;
  for (unsigned i = 0; i < static_cast<unsigned>(AbortCause::kCauseCount); ++i)
    d.aborts[i] = a.aborts[i] - b.aborts[i];
  for (unsigned i = 0; i < static_cast<unsigned>(CommitPath::kPathCount); ++i)
    d.commits[i] = a.commits[i] - b.commits[i];
  d.sub_htm_commits = a.sub_htm_commits - b.sub_htm_commits;
  d.sub_htm_aborts = a.sub_htm_aborts - b.sub_htm_aborts;
  d.global_aborts = a.global_aborts - b.global_aborts;
  d.validations = a.validations - b.validations;
  d.ring_rollovers = a.ring_rollovers - b.ring_rollovers;
  for (unsigned i = 0; i < StatSheet::kRingShards; ++i) {
    d.ring_publishes_by_shard[i] = a.ring_publishes_by_shard[i] - b.ring_publishes_by_shard[i];
    d.ring_validates_by_shard[i] = a.ring_validates_by_shard[i] - b.ring_validates_by_shard[i];
  }
  for (unsigned i = 0; i < static_cast<unsigned>(FallbackReason::kReasonCount); ++i)
    d.fallbacks[i] = a.fallbacks[i] - b.fallbacks[i];
  for (unsigned i = 0; i < static_cast<unsigned>(PersistOp::kOpCount); ++i)
    d.persists[i] = a.persists[i] - b.persists[i];
  d.crashes = a.crashes - b.crashes;
  d.recoveries = a.recoveries - b.recoveries;
  return d;
}

/// HtmRuntime counters of a measured region: hardware begins and commits,
/// and the monitor-table chunks allocated and still live at its end.
struct SimCounts {
  std::uint64_t begins = 0, commits = 0;
  std::uint64_t mon_alloc = 0, mon_live = 0;

  static SimCounts at(const sim::HtmRuntime& rt) {
    return SimCounts{rt.total_begins(), rt.total_commits(), 0, 0};
  }
  /// The region since `s0`. Quiesces the monitor table, so every thread
  /// that ran transactions must have stopped.
  static SimCounts since(sim::HtmRuntime& rt, const SimCounts& s0) {
    rt.mon_quiesce();
    return SimCounts{rt.total_begins() - s0.begins, rt.total_commits() - s0.commits,
                     rt.mon_chunks_allocated(),
                     rt.mon_chunks_allocated() - rt.mon_chunks_freed()};
  }
  /// Sum the begins and commits; keep the chunk counts of the later region.
  void add(const SimCounts& o) {
    begins += o.begins;
    commits += o.commits;
    mon_alloc = o.mon_alloc;
    mon_live = o.mon_live;
  }
};

// --------------------------------------------------------------------------
// Tracing: thread-local wrapper state, spans
// --------------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint64_t req;     ///< request id shared by every span of one request
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// One execute() in every kSampleEvery gets spans; Ctx accesses are timed
/// (and, in sampled requests, spanned) once every kCtxTimeEvery.
constexpr std::uint64_t kSampleEvery = 32;
constexpr std::uint64_t kCtxTimeEvery = 8;
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 12;

constexpr unsigned kPaths = static_cast<unsigned>(CommitPath::kPathCount);

/// Per-thread wrapper state. Owned by the registry, reached through a
/// thread-local pointer; merged only after the owning thread is joined.
struct ThreadTrace {
  unsigned index = 0;

  // Backend::execute boundary.
  std::uint64_t executes = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t path_commits[kPaths]{};
  std::uint64_t path_ns[kPaths]{};
  std::vector<std::uint64_t> path_lat[kPaths];
  StatSheet sheet{};               ///< sum of per-execute Worker::stats() diffs
  std::uint64_t unreconciled = 0;  ///< executes whose diff was not one commit

  // Txn::step boundary.
  std::uint64_t step_calls = 0;
  std::uint64_t seg0_calls = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t useful_segs = 0;
  unsigned cur_max_seg = 0;
  std::uint64_t first_step_ns = 0;     ///< current execute; 0 = none yet
  std::uint64_t last_step_ret_ns = 0;  ///< current execute

  // Ctx boundary.
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t timed_reads = 0, timed_writes = 0;
  std::uint64_t read_ns = 0, write_ns = 0;

  // Server requests, by soak phase: latency from scheduled arrival to
  // execute() return, execute() duration, and (traced) queue wait and
  // service time.
  static constexpr unsigned kPhases = 8;
  std::vector<std::uint64_t> req_lat[kPhases];
  std::vector<std::uint64_t> exec_lat[kPhases];
  std::vector<std::uint64_t> queue_wait[kPhases];
  std::vector<std::uint64_t> service[kPhases];

  // Spans of the current sampled request.
  bool sampled = false;
  std::uint64_t req = 0;
  std::uint64_t exec_span = 0;
  std::uint64_t attempt_span = 0;
  std::uint64_t attempt_start = 0;
  std::uint64_t seg_span = 0;
  std::uint64_t sample_counter = 0;
  std::uint64_t next_id = 0;
  std::vector<Span> spans;

  std::uint64_t new_id() noexcept {
    return (std::uint64_t{index + 1} << 40) | ++next_id;
  }
  void push(const char* name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t req_id, std::uint64_t t0, std::uint64_t t1) {
    if (spans.size() < kMaxSpansPerThread)
      spans.push_back(Span{name, id, parent, req_id, t0, t1});
  }
  void close_attempt() {
    if (sampled && attempt_span != 0)
      push("attempt", attempt_span, exec_span, req, attempt_start,
           last_step_ret_ns ? last_step_ret_ns : attempt_start);
    attempt_span = 0;
  }
};

/// Owner of every thread's ThreadTrace for one measurement region.
class TraceRegistry {
 public:
  ThreadTrace& local() {
    struct Tls {
      ThreadTrace* p = nullptr;
      std::uint64_t gen = 0;
    };
    thread_local Tls tls;
    const std::uint64_t g = gen_.load(std::memory_order_acquire);
    if (tls.gen != g || tls.p == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      all_.push_back(std::make_unique<ThreadTrace>());
      all_.back()->index = static_cast<unsigned>(all_.size() - 1);
      tls.p = all_.back().get();
      tls.gen = g;
    }
    return *tls.p;
  }

  /// Start a fresh region. Only while no thread is inside a wrapper.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    all_.clear();
    gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Every thread's state (call after the threads are joined).
  std::vector<ThreadTrace*> threads() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<ThreadTrace*> v;
    for (auto& p : all_) v.push_back(p.get());
    return v;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> all_;
  std::atomic<std::uint64_t> gen_{1};
};

inline TraceRegistry& registry() {
  static TraceRegistry r;
  return r;
}

/// Forwarding Ctx (traced runs only): counts every access, times one in
/// kCtxTimeEvery, and spans the timed ones of sampled requests. An access
/// that aborts (the simulator unwinds by exception) is counted, not timed.
class TracingCtx final : public tm::Ctx {
 public:
  TracingCtx(tm::Ctx& in, ThreadTrace& t) : in_(in), t_(t) {}

  std::uint64_t read(const std::uint64_t* addr) override {
    if (++t_.reads % kCtxTimeEvery != 0) return in_.read(addr);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t v = in_.read(addr);
    finish("ctx.read", t0, t_.timed_reads, t_.read_ns);
    return v;
  }
  void write(std::uint64_t* addr, std::uint64_t val) override {
    if (++t_.writes % kCtxTimeEvery != 0) return in_.write(addr, val);
    const std::uint64_t t0 = now_ns();
    in_.write(addr, val);
    finish("ctx.write", t0, t_.timed_writes, t_.write_ns);
  }
  void work(std::uint64_t n) override { in_.work(n); }
  std::uint64_t raw_read(const std::uint64_t* addr) override {
    ++t_.reads;
    return in_.raw_read(addr);
  }
  void raw_write(std::uint64_t* addr, std::uint64_t val) override {
    ++t_.writes;
    in_.raw_write(addr, val);
  }

 private:
  void finish(const char* name, std::uint64_t t0, std::uint64_t& n,
              std::uint64_t& ns) {
    const std::uint64_t t1 = now_ns();
    ++n;
    ns += t1 - t0;
    if (t_.sampled) t_.push(name, t_.new_id(), t_.seg_span, t_.req, t0, t1);
  }

  tm::Ctx& in_;
  ThreadTrace& t_;
};

using StepFn = bool (*)(tm::Ctx&, const void*, void*, unsigned);

/// Immutable env of a traced transaction: the application's own step and
/// env, which the wrapper forwards to.
struct TraceEnv {
  StepFn step = nullptr;
  const void* env = nullptr;
};

/// Txn::step wrapper: counts attempts (segment-0 calls) and segment runs,
/// times every step call, and hands the application a TracingCtx.
inline bool traced_step(tm::Ctx& c, const void* envp, void* locals,
                        unsigned seg) {
  const TraceEnv& te = *static_cast<const TraceEnv*>(envp);
  ThreadTrace& t = registry().local();
  const std::uint64_t t0 = now_ns();
  if (seg == 0) {
    ++t.seg0_calls;
    t.cur_max_seg = 0;
    t.close_attempt();
    if (t.sampled) {
      t.attempt_span = t.new_id();
      t.attempt_start = t0;
    }
  }
  if (t.first_step_ns == 0) t.first_step_ns = t0;
  ++t.step_calls;
  if (seg > t.cur_max_seg) t.cur_max_seg = seg;
  if (t.sampled) t.seg_span = t.new_id();
  // Runs on normal return and when a hardware abort unwinds the step.
  struct Done {
    ThreadTrace& t;
    std::uint64_t t0;
    ~Done() {
      const std::uint64_t t1 = now_ns();
      t.step_ns += t1 - t0;
      t.last_step_ret_ns = t1;
      if (t.sampled) t.push("segment", t.seg_span, t.attempt_span, t.req, t0, t1);
    }
  } done{t, t0};
  TracingCtx tc(c, t);
  return te.step(tc, te.env, locals, seg);
}

/// Re-point `txn` at traced_step; `te` must outlive every execution.
inline tm::Txn traced_txn(const tm::Txn& txn, TraceEnv& te) {
  te.step = txn.step;
  te.env = txn.env;
  tm::Txn t = txn;
  t.step = &traced_step;
  t.env = &te;
  return t;
}

/// One traced execute(): the Worker::stats() diff assigns the call's time
/// to the path that committed. Returns the call's duration (ns).
inline std::uint64_t traced_execute(tm::Backend& be, tm::Worker& w,
                                    const tm::Txn& txn, ThreadTrace& t,
                                    std::uint64_t req) {
  const StatSheet before = w.stats().snapshot();
  t.first_step_ns = 0;
  t.last_step_ret_ns = 0;
  t.cur_max_seg = 0;
  t.attempt_span = 0;
  t.sampled = t.sample_counter++ % kSampleEvery == 0 &&
              t.spans.size() < kMaxSpansPerThread;
  t.req = req;
  if (t.sampled) t.exec_span = t.new_id();
  const std::uint64_t t0 = now_ns();
  be.execute(w, txn);
  const std::uint64_t t1 = now_ns();
  t.close_attempt();
  if (t.sampled) t.push("execute", t.exec_span, 0, req, t0, t1);
  t.sampled = false;

  const StatSheet d = sheet_delta(w.stats().snapshot(), before);
  t.sheet += d;
  ++t.executes;
  t.exec_ns += t1 - t0;
  t.useful_segs += t.cur_max_seg + 1;
  unsigned path = kPaths;
  for (unsigned p = 0; p < kPaths; ++p)
    if (d.commits[p] != 0) path = p;
  if (d.total_commits() != 1 || path == kPaths) {
    ++t.unreconciled;
  } else {
    ++t.path_commits[path];
    t.path_ns[path] += t1 - t0;
    t.path_lat[path].push_back(t1 - t0);
  }
  return t1 - t0;
}

/// Traced totals of one region, merged over threads.
struct TraceTotals {
  std::uint64_t executes = 0, exec_ns = 0, unreconciled = 0;
  std::uint64_t path_commits[kPaths]{}, path_ns[kPaths]{};
  std::vector<std::uint64_t> path_lat[kPaths];
  StatSheet sheet{};
  std::uint64_t step_calls = 0, seg0_calls = 0, step_ns = 0, useful_segs = 0;
  std::uint64_t reads = 0, writes = 0, timed_reads = 0, timed_writes = 0;
  std::uint64_t read_ns = 0, write_ns = 0;
  std::vector<Span> spans;

  void add(const ThreadTrace& t) {
    executes += t.executes;
    exec_ns += t.exec_ns;
    unreconciled += t.unreconciled;
    for (unsigned p = 0; p < kPaths; ++p) {
      path_commits[p] += t.path_commits[p];
      path_ns[p] += t.path_ns[p];
      path_lat[p].insert(path_lat[p].end(), t.path_lat[p].begin(), t.path_lat[p].end());
    }
    sheet += t.sheet;
    step_calls += t.step_calls;
    seg0_calls += t.seg0_calls;
    step_ns += t.step_ns;
    useful_segs += t.useful_segs;
    reads += t.reads;
    writes += t.writes;
    timed_reads += t.timed_reads;
    timed_writes += t.timed_writes;
    read_ns += t.read_ns;
    write_ns += t.write_ns;
    spans.insert(spans.end(), t.spans.begin(), t.spans.end());
  }
};

/// Fill the tm / apps / core layers from a traced region. `busy_den_ns` is
/// threads x wall time of the region. Also runs the reconciliation
/// self-checks: per-path commits sum to the execute() count and to the
/// StatSheet commit total, and the path time shares sum to 1.
inline void fill_tm_core(Layers& L, Report& r, TraceTotals& tt,
                         double busy_den_ns) {
  const StatSheet& s = tt.sheet;
  const double commits = static_cast<double>(tt.executes);
  std::uint64_t path_sum = 0, path_ns_sum = 0;
  for (unsigned p = 0; p < kPaths; ++p) {
    path_sum += tt.path_commits[p];
    path_ns_sum += tt.path_ns[p];
  }
  r.check(tt.unreconciled == 0,
          std::to_string(tt.unreconciled) +
              " execute() calls did not show exactly one commit in Worker::stats()");
  r.check(path_sum == tt.executes,
          "per-path commits (" + std::to_string(path_sum) +
              ") != execute() calls (" + std::to_string(tt.executes) + ")");
  r.check(path_sum == s.total_commits(),
          "per-path commits (" + std::to_string(path_sum) +
              ") != StatSheet total commits (" + std::to_string(s.total_commits()) + ")");
  r.note("reconcile: execute()=%" PRIu64 " per-path=%" PRIu64 " statsheet=%" PRIu64,
         tt.executes, path_sum, s.total_commits());

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  L["tm.execute_busy_frac"] = {ratio(d(tt.exec_ns), busy_den_ns), "ratio"};
  L["tm.attempts_per_commit"] = {ratio(d(tt.seg0_calls), commits), "count"};
  L["tm.segment_runs_per_commit"] = {ratio(d(tt.step_calls), commits), "count"};
  L["tm.useful_segment_frac"] = {ratio(d(tt.useful_segs), d(tt.step_calls)), "ratio"};
  L["tm.framework_us_per_commit"] = {
      ratio(d(tt.exec_ns - std::min(tt.exec_ns, tt.step_ns)) / 1e3, commits), "us"};
  L["tm.ctx_read_ns"] = {ratio(d(tt.read_ns), d(tt.timed_reads)), "ns"};
  L["tm.ctx_write_ns"] = {ratio(d(tt.write_ns), d(tt.timed_writes)), "ns"};
  L["tm.ctx_reads_per_commit"] = {ratio(d(tt.reads), commits), "count"};
  L["tm.ctx_writes_per_commit"] = {ratio(d(tt.writes), commits), "count"};
  L["apps.step_us_per_commit"] = {ratio(d(tt.step_ns) / 1e3, commits), "us"};

  static const char* kPath[kPaths] = {"htm", "sw", "gl"};
  double time_frac_sum = 0;
  for (unsigned p = 0; p < kPaths; ++p) {
    const std::string k = kPath[p];
    L["core.commit_frac." + k] = {ratio(d(tt.path_commits[p]), commits), "ratio"};
    const double tf = ratio(d(tt.path_ns[p]), d(path_ns_sum));
    L["core.time_frac." + k] = {tf, "ratio"};
    time_frac_sum += tf;
    L["core.path_p50_us." + k] = {
        r.pct("core.path_p50_us." + k, tt.path_lat[p], 0.50, 1e3, "us"), "us"};
    L["core.path_p99_us." + k] = {
        r.pct("core.path_p99_us." + k, tt.path_lat[p], 0.99, 1e3, "us"), "us"};
  }
  r.check(path_ns_sum == 0 || std::fabs(time_frac_sum - 1.0) < 1e-9,
          "core.time_frac.* sums to " + std::to_string(time_frac_sum));

  for (unsigned c = 0; c < static_cast<unsigned>(AbortCause::kCauseCount); ++c)
    L[std::string("core.hw_aborts_per_commit.") + to_string(static_cast<AbortCause>(c))] = {
        ratio(d(s.aborts[c]), commits), "count"};
  const double sw = d(s.commits[static_cast<unsigned>(CommitPath::kSoftware)]);
  L["core.sub_htm_per_sw_commit"] = {ratio(d(s.sub_htm_commits), sw), "count"};
  L["core.sub_htm_abort_frac"] = {
      ratio(d(s.sub_htm_aborts), d(s.sub_htm_aborts + s.sub_htm_commits)), "ratio"};
  L["core.global_aborts_per_sw_commit"] = {ratio(d(s.global_aborts), sw), "count"};
  L["core.validations_per_sw_commit"] = {ratio(d(s.validations), sw), "count"};
  for (unsigned i = 0; i < StatSheet::kRingShards; ++i) {
    const std::string sh = ".s" + std::to_string(i);
    L["core.ring_validates_per_sw_commit" + sh] = {ratio(d(s.ring_validates_by_shard[i]), sw),
                                                   "count"};
    L["core.ring_publishes_per_commit" + sh] = {ratio(d(s.ring_publishes_by_shard[i]), commits),
                                               "count"};
  }
  L["core.ring_rollovers"] = {d(s.ring_rollovers), "count"};
  for (unsigned f = 0; f < static_cast<unsigned>(FallbackReason::kReasonCount); ++f)
    L[std::string("core.fallbacks_per_kcommit.") + to_string(static_cast<FallbackReason>(f))] = {
        ratio(1e3 * d(s.fallbacks[f]), commits), "count"};
}

/// Fill the sim layer; `executes` is the traced execute() count.
inline void fill_sim(Layers& L, const SimCounts& s, std::uint64_t executes) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  L["sim.htm_commit_frac"] = {ratio(d(s.commits), d(s.begins)), "ratio"};
  L["sim.begins_per_commit"] = {ratio(d(s.begins), d(executes)), "count"};
  L["sim.mon_chunks_allocated"] = {d(s.mon_alloc), "count"};
  L["sim.mon_chunks_live"] = {d(s.mon_live), "count"};
}

// --------------------------------------------------------------------------
// Closed loops: the repetitions of one run
// --------------------------------------------------------------------------

/// What one closed-loop repetition measured.
struct RepOut {
  double setup_s = 0;
  double secs = 0;  ///< timed execution
  std::uint64_t commits = 0;
  SimCounts sim;
};

/// Folds the repetitions of one closed-loop run of `threads` clients into
/// its end-to-end metrics (untraced run) or its bench, tm, apps, core and
/// sim layers (traced run).
class ClosedRun {
 public:
  explicit ClosedRun(unsigned threads) : threads_(threads) {}

  /// Fold repetition `rep`; a traced one also merges the registry's thread
  /// traces, so call it before the registry is reset.
  void add(Report& r, unsigned rep, bool traced, const RepOut& o) {
    setup_.push_back(o.setup_s);
    const double tput = static_cast<double>(o.commits) / o.secs;
    r.note("rep %u%s: setup %.4f s, %" PRIu64 " commits in %.3f s = %.1f /s", rep,
           traced ? " (traced)" : "", o.setup_s, o.commits, o.secs, tput);
    if (!traced) {
      tput_u_.push_back(tput);
      return;
    }
    tput_t_.push_back(tput);
    for (ThreadTrace* t : registry().threads()) tt.add(*t);
    busy_ns_ += o.secs * 1e9 * threads_;
    sim_.add(o.sim);
  }

  /// Untraced run: setup_s, peak_rss_mb and the window figures.
  void end_to_end(Report& r, const WindowStats& ws) const {
    r.metric("setup_s", median(setup_), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    ws.report(r);
  }

  /// Traced run: the layers every closed loop reaches.
  Layers layers(Report& r) {
    Layers L;
    L["bench.trace_overhead_frac"] = {1.0 - ratio(median(tput_t_), median(tput_u_)), "ratio"};
    L["bench.failed_frac"] = {
        ratio(static_cast<double>(r.failed()), static_cast<double>(r.attempted)), "ratio"};
    fill_tm_core(L, r, tt, busy_ns_);
    fill_sim(L, sim_, tt.executes);
    return L;
  }

  TraceTotals tt;  ///< traced repetitions, merged

 private:
  unsigned threads_;
  std::vector<double> setup_, tput_u_, tput_t_;
  double busy_ns_ = 0;
  SimCounts sim_;
};

/// Write spans as JSON lines (one object per span).
inline void write_spans(const std::string& path, const std::vector<Span>& spans,
                        Report& r) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    r.note("cannot write span file %s", path.c_str());
    return;
  }
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"req\":%" PRIu64 ",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                 s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns);
  std::fclose(f);
  r.note("spans: %zu written to %s", spans.size(), path.c_str());
}

}  // namespace pb
