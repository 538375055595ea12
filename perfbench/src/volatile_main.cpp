// Repository benchmark, plain library flavour: workloads skiplist10k,
// list10k and server. See perfbench/README.md for why each workload exists
// and which end-to-end metric each per-layer metric should move.
//
//   pb_volatile --workload skiplist10k|list10k|server --seed N --seconds S
//               --trace 0|1 [--trace-out FILE]
//
// Every input (op and key streams, the Poisson arrival schedule) is drawn
// from --seed before timing starts. The program checks its own outputs and
// prints the result object as its last line.
#include <barrier>
#include <cstddef>
#include <thread>
#include <type_traits>

#include "apps/list.hpp"
#include "apps/nrw.hpp"
#include "apps/skiplist.hpp"
#include "harness.hpp"
#include "server/server.hpp"
#include "server/traffic.hpp"
#include "sim/config.hpp"

namespace pb {
namespace {

sim::HtmConfig htm_config(std::uint64_t seed) {
  sim::HtmConfig c = sim::HtmConfig::haswell4c8t();
  c.seed = seed;
  return c;
}

// ==========================================================================
// Closed loops: skiplist10k, list10k
// ==========================================================================

struct Op {
  std::uint64_t key;
  std::uint32_t op;     ///< kContains / kInsert / kRemove (same codes in both apps)
  std::uint32_t level;  ///< skip-list tower height for inserts
};

constexpr unsigned kInitialSize = 10'000;
constexpr unsigned kWritePct = 50;

std::uint32_t draw_op(Rng& rng) {
  const std::uint64_t r = rng.below(100);
  return r < kWritePct / 2 ? 1u : r < kWritePct ? 2u : 0u;  // insert, remove, contains
}

struct ListTraits {
  using App = apps::ListApp;
  static constexpr std::size_t kStream = std::size_t{1} << 12;
  static constexpr unsigned kWarmOps = 150;  // per thread
  // ~1.6K commits/s: a 2.5 s window holds ~4K samples, 40 beyond p99.
  static constexpr double kWindowS = 2.5;
  static constexpr unsigned kThreads = 4;
  static std::unique_ptr<App> make(std::uint64_t) {
    App::Config c;
    c.initial_size = kInitialSize;
    c.write_pct = kWritePct;
    return std::make_unique<App>(c);
  }
  static Op draw(Rng& rng) {
    const std::uint32_t op = draw_op(rng);
    return Op{rng.below(2 * kInitialSize), op, 0};
  }
  static void prep(App::Locals& l, const App::Locals& tmpl, const Op& o,
                   App::NodePool& pool) {
    l = tmpl;
    l.op = o.op;
    l.key = o.key;
    l.new_node = o.op == App::kInsert ? pool.take() : 0;
    l.result = 0;
  }
  static bool audit(const App& a) { return a.sorted_and_unique(); }
};

struct SkipTraits {
  using App = apps::SkipListApp;
  static constexpr std::size_t kStream = std::size_t{1} << 16;
  static constexpr unsigned kWarmOps = 20'000;
  static constexpr double kWindowS = 0.25;
  // Three clients leave one of the host's four cores to the harness thread
  // and the OS: with four clients these microsecond transactions read 9 %
  // apart from run to run, with three about 3 %.
  static constexpr unsigned kThreads = 3;
  static std::unique_ptr<App> make(std::uint64_t seed) {
    App::Config c;
    c.initial_size = kInitialSize;
    c.write_pct = kWritePct;
    return std::make_unique<App>(c, seed);
  }
  static Op draw(Rng& rng) {
    const std::uint32_t op = draw_op(rng);
    const std::uint64_t key = 1 + rng.below(2 * kInitialSize);
    return Op{key, op, App::random_level(rng)};
  }
  static void prep(App::Locals& l, const App::Locals& tmpl, const Op& o,
                   App::NodePool& pool) {
    l = tmpl;
    l.op = o.op;
    l.key = o.key;
    l.new_level = o.level;
    l.new_node = o.op == App::kInsert ? pool.take() : 0;
    l.result = 0;
    l.victim = 0;
  }
  static bool audit(const App& a) {
    return a.sorted_and_unique() && a.towers_consistent();
  }
};

/// One repetition: fresh runtime, backend, structure and op streams; a
/// fixed-count warm-up; then a timed closed loop of kThreads clients cut
/// into windows (untraced repetitions feed `ws`).
template <typename T>
RepOut closed_rep(const Args& a, unsigned rep, bool traced, Report& r, WindowStats& ws) {
  using App = typename T::App;
  constexpr unsigned kThreads = T::kThreads;
  RepOut out;
  const std::uint64_t t_setup = now_ns();

  // Inputs first: per-thread op streams (replayed cyclically).
  std::vector<std::vector<Op>> streams(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    Rng rng(mix_seed(a.seed, rep, t));
    streams[t].reserve(T::kStream);
    for (std::size_t i = 0; i < T::kStream; ++i) streams[t].push_back(T::draw(rng));
  }
  sim::HtmRuntime rt(htm_config(mix_seed(a.seed, rep, 99)));
  std::unique_ptr<tm::Backend> be = tm::make_backend(tm::Algo::kPartHtm, rt);
  std::unique_ptr<App> app = T::make(mix_seed(a.seed, rep, 7));
  if (traced) registry().reset();

  // std::barrier blocks in the kernel after a short spin, so waiting
  // threads do not compete with the clients for the four cores.
  std::barrier<> bar(kThreads + 1);
  std::atomic<bool> stop{false};
  std::atomic<unsigned> window{0};
  std::vector<std::int64_t> net(kThreads, 0);
  std::vector<std::uint64_t> ops(kThreads, 0);
  std::vector<StatSheet> sheets(kThreads);
  std::vector<std::vector<std::uint64_t>> lat(kThreads);
  std::vector<std::vector<std::size_t>> marks(kThreads);
  const std::size_t lat_reserve =
      traced ? 0 : static_cast<std::size_t>(a.seconds / kReps * 250'000.0);

  auto body = [&](unsigned tid) {
    std::unique_ptr<tm::Worker> w = be->make_worker(tid);
    typename App::NodePool pool;
    {  // node-pool warm-up: allocate now, not inside the timed region
      std::vector<std::uint64_t> pre;
      for (int i = 0; i < 256; ++i) pre.push_back(pool.take());
      for (std::uint64_t p : pre) pool.give(p);
    }
    typename App::Locals tmpl{}, l{};
    Rng dummy(1);
    tm::Txn txn = app->make_txn(dummy, pool, tmpl);
    app->finish(tmpl, pool);
    tmpl.new_node = 0;
    txn.locals = &l;
    TraceEnv te;
    const tm::Txn ttxn = traced_txn(txn, te);
    ThreadTrace* tt = traced ? &registry().local() : nullptr;
    std::vector<std::uint64_t>& my_lat = lat[tid];
    my_lat.reserve(lat_reserve);
    const std::vector<Op>& s = streams[tid];
    std::size_t pos = 0;
    std::int64_t my_net = 0;

    auto run_one = [&](bool timed) {
      const Op& o = s[pos++ % s.size()];
      T::prep(l, tmpl, o, pool);
      if (tt != nullptr && timed) {
        traced_execute(*be, *w, ttxn, *tt, (std::uint64_t{tid} << 40) | pos);
      } else if (timed) {
        const std::uint64_t t0 = now_ns();
        be->execute(*w, txn);
        my_lat.push_back(now_ns() - t0);
      } else {
        be->execute(*w, txn);
      }
      if (l.result) my_net += o.op == App::kInsert ? 1 : o.op == App::kRemove ? -1 : 0;
      app->finish(l, pool);
    };

    for (unsigned i = 0; i < T::kWarmOps; ++i) run_one(false);
    bar.arrive_and_wait();  // set-up done
    bar.arrive_and_wait();  // timed region starts
    const StatSheet s0 = w->stats();
    std::vector<std::size_t>& my_marks = marks[tid];
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Note where each new window starts in this client's samples.
      const unsigned win = window.load(std::memory_order_relaxed);
      while (my_marks.size() < win) my_marks.push_back(my_lat.size());
      run_one(true);
      ++n;
    }
    sheets[tid] = sheet_delta(w->stats(), s0);
    ops[tid] = n;
    net[tid] = my_net;
  };

  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) ts.emplace_back(body, t);
  bar.arrive_and_wait();
  out.setup_s = secs_since(t_setup);
  const double rep_secs = a.seconds / kReps;
  const unsigned nwin = std::max(1u, static_cast<unsigned>(rep_secs / T::kWindowS));
  const SimCounts sim0 = SimCounts::at(rt);
  bar.arrive_and_wait();
  const std::uint64_t t0 = now_ns();
  std::vector<std::uint64_t> bounds{t0};
  for (unsigned k = 1; k <= nwin; ++k) {
    const std::uint64_t due = t0 + static_cast<std::uint64_t>(rep_secs * 1e9 * k / nwin);
    const std::uint64_t now = now_ns();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    bounds.push_back(now_ns());
    if (k < nwin) window.store(k, std::memory_order_relaxed);
  }
  stop.store(true);
  for (std::thread& t : ts) t.join();
  out.secs = static_cast<double>(bounds.back() - t0) * 1e-9;
  out.sim = SimCounts::since(rt, sim0);
  if (!traced) {
    // Window k holds each client's samples [marks[k-1], marks[k]).
    for (unsigned k = 0; k < nwin; ++k) {
      std::vector<std::uint64_t> win;
      for (unsigned t = 0; t < kThreads; ++t) {
        const std::vector<std::size_t>& m = marks[t];
        const std::size_t n = lat[t].size();
        const std::size_t lo = k == 0 ? 0 : k - 1 < m.size() ? m[k - 1] : n;
        const std::size_t hi = k < m.size() ? m[k] : n;
        win.insert(win.end(), lat[t].begin() + static_cast<std::ptrdiff_t>(lo),
                   lat[t].begin() + static_cast<std::ptrdiff_t>(hi));
      }
      ws.add(win, static_cast<double>(bounds[k + 1] - bounds[k]) * 1e-9);
    }
  }

  // Correctness: sorted, unique, size from per-op results; every execute()
  // committed exactly once.
  std::int64_t net_sum = 0;
  std::uint64_t stat_commits = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    net_sum += net[t];
    out.commits += ops[t];
    stat_commits += sheets[t].total_commits();
  }
  r.attempted += out.commits;
  r.check(T::audit(*app), "structure not sorted/unique (or towers inconsistent)");
  const std::int64_t want = static_cast<std::int64_t>(kInitialSize) + net_sum;
  r.check(static_cast<std::int64_t>(app->size()) == want,
          "size " + std::to_string(app->size()) + " != initial + inserts - removes = " +
              std::to_string(want));
  r.check(stat_commits == out.commits, "StatSheet commits " + std::to_string(stat_commits) +
                                           " != execute() calls " +
                                           std::to_string(out.commits));
  return out;
}

template <typename T>
void run_closed(const Args& a, Report& r) {
  ClosedRun run(T::kThreads);
  WindowStats ws;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    const bool traced = traced_rep(a.trace, rep);
    run.add(r, rep, traced, closed_rep<T>(a, rep, traced, r, ws));
  }
  if (!a.trace) return run.end_to_end(r, ws);
  emit_layers(r, run.layers(r));
  write_spans(a.trace_out, run.tt.spans, r);
}

// ==========================================================================
// Open loop: server
// ==========================================================================

constexpr unsigned kServerWorkers = 2;
// Requests write one of kSlices disjoint destination slices (and read the
// matching 2000-word source slice), so two workers rarely collide on the
// same 100 words.
constexpr unsigned kSlices = 50;
constexpr double kSloUs = 10'000;  // accepted-p99 objective
constexpr double kWarmupS = 0.25;  // per repetition, not measured
// Fixed ascending ladder (first rung = nominal) and overload rate, chosen
// once for a 4-core host; never calibrated per run.
constexpr double kLadder[] = {4'000, 6'000, 8'000, 10'000};
constexpr double kOverloadRate = 24'000;
constexpr unsigned kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr unsigned kNominal = 1;  // phase 0 = warm-up
constexpr unsigned kOverload = kRungs + 1;
constexpr unsigned kStates = static_cast<unsigned>(server::OverloadState::kStateCount);
static_assert(kOverload < server::TxnServer::kMaxPhases);
static_assert(kOverload < ThreadTrace::kPhases);

/// The request's locals: NrwApp's own locals first (the NRW step reads only
/// those), then immutable request identity the harness reads back.
struct ReqLocals {
  apps::NrwApp::Locals nrw;
  std::uint64_t sched_ns;
  std::uint64_t req;
  std::uint32_t phase;
  std::uint32_t slice;
};
static_assert(std::is_standard_layout_v<ReqLocals> && offsetof(ReqLocals, nrw) == 0);
static_assert(sizeof(ReqLocals) <= server::TxnServer::kMaxLocalBytes);

/// Forwarding backend the server's workers call: records each request's
/// execute() duration and latency from its scheduled arrival; traced, it
/// runs the traced execute and also records queue wait and service time.
class TimedBackend final : public tm::Backend {
 public:
  TimedBackend(tm::Backend& in, bool traced) : in_(in), traced_(traced) {}
  const char* name() const override { return in_.name(); }
  std::unique_ptr<tm::Worker> make_worker(unsigned tid) override {
    return in_.make_worker(tid);
  }
  void execute(tm::Worker& w, const tm::Txn& txn) override {
    const ReqLocals& rl = *static_cast<const ReqLocals*>(txn.locals);
    const std::uint64_t sched = rl.sched_ns;
    const std::uint32_t phase = rl.phase;
    ThreadTrace& t = registry().local();
    if (traced_) {
      t.exec_lat[phase].push_back(traced_execute(in_, w, txn, t, rl.req));
      t.queue_wait[phase].push_back(t.first_step_ns - std::min(t.first_step_ns, sched));
      t.service[phase].push_back(t.last_step_ret_ns - t.first_step_ns);
    } else {
      const std::uint64_t t0 = now_ns();
      in_.execute(w, txn);
      t.exec_lat[phase].push_back(now_ns() - t0);
    }
    t.req_lat[phase].push_back(now_ns() - sched);
  }
  void set_degraded(bool on) noexcept override { in_.set_degraded(on); }
  bool degraded() const noexcept override { return in_.degraded(); }

 private:
  tm::Backend& in_;
  bool traced_;
};

struct Arrival {
  std::uint64_t offset_ns;  ///< from the schedule origin
  std::uint32_t phase;
  std::uint32_t slice;
};

struct Plan {
  std::vector<server::Phase> phases;
  std::vector<Arrival> arrivals;
};

/// Phase durations scale with the measured time; the warm-up is fixed.
Plan make_plan(std::uint64_t seed, double measured_s) {
  Plan p;
  p.phases.push_back({"warmup", kLadder[0], kWarmupS});
  p.phases.push_back({"nominal", kLadder[0], 0.30 * measured_s});
  for (unsigned i = 1; i < kRungs; ++i)
    p.phases.push_back({"rung" + std::to_string(i), kLadder[i],
                        0.40 * measured_s / (kRungs - 1)});
  p.phases.push_back({"overload", kOverloadRate, 0.30 * measured_s});
  Rng rng(seed);
  double t = 0, end = 0;
  for (std::uint32_t ph = 0; ph < p.phases.size(); ++ph) {
    const double start = end;
    end += p.phases[ph].duration_s;
    t = std::max(t, start);
    for (;;) {
      t += server::exp_gap_s(rng, p.phases[ph].rate_tps);
      if (t >= end) break;
      p.arrivals.push_back(Arrival{static_cast<std::uint64_t>(t * 1e9), ph,
                                   static_cast<std::uint32_t>(rng.below(kSlices))});
    }
    t = end;
  }
  return p;
}

/// Everything set-up builds for one server repetition.
struct ServerRig {
  apps::NrwApp app;
  sim::HtmRuntime rt;
  std::unique_ptr<tm::Backend> inner;
  TimedBackend be;
  server::TxnServer srv;
  Plan plan;

  static apps::NrwApp::Config nrw_config() {
    apps::NrwApp::Config c;
    c.n_reads = 2000;
    c.m_writes = 100;
    return c;
  }
  static server::ServerConfig server_config() {
    // Same queue shape as bench_server's soak. The controller thread still
    // polls every millisecond, but its thresholds are out of reach, so the
    // server stays in normal mode: a 1 ms poll sees a handful of commits,
    // and a free controller flipped into degraded or shedding mode on some
    // runs and not on others, which moved nominal p99 between 1.8 and
    // 10 ms from run to run.
    server::ServerConfig c;
    c.workers = kServerWorkers;
    c.queue_capacity = 64;
    c.limits.max_pending = 64;
    c.overload.degrade_capacity_hi = 1e18;
    c.overload.degrade_quarantine_hi = 1e18;
    c.overload.shed_convoy_hi = 1e18;
    c.overload.shed_queue_hi = 1e18;
    return c;
  }
  ServerRig(std::uint64_t seed, double measured_s, bool traced)
      : app(nrw_config(), kSlices),
        rt(htm_config(seed)),
        inner(tm::make_backend(tm::Algo::kPartHtm, rt)),
        be(*inner, traced),
        srv(be, server_config()),
        plan(make_plan(seed, measured_s)) {}
};

/// acc += a - b, field by field.
void add_delta(server::ServerTotals& acc, const server::ServerTotals& a,
               const server::ServerTotals& b) {
  acc.submitted += a.submitted - b.submitted;
  acc.accepted += a.accepted - b.accepted;
  acc.rejected_overload += a.rejected_overload - b.rejected_overload;
  acc.rejected_in_flight += a.rejected_in_flight - b.rejected_in_flight;
  acc.rejected_pending += a.rejected_pending - b.rejected_pending;
  acc.rejected_retry += a.rejected_retry - b.rejected_retry;
  acc.committed += a.committed - b.committed;
  acc.shed += a.shed - b.shed;
  for (unsigned i = 0; i < kStates; ++i) acc.degrades[i] += a.degrades[i] - b.degrades[i];
}

/// What one server repetition measured (latencies in us).
struct ServerRep {
  double setup_s = 0;
  double nominal_p50 = 0, nominal_p99 = 0, overload_p99 = 0;
  double exec_p50 = 0, exec_p99 = 0;  ///< execute() over the measured phases
  double goodput = 0;             ///< overload-phase commits per second
  double slo_rate = 0;              ///< highest rung within the SLO, nothing refused
  server::ServerTotals measured{};  ///< counters over the measured phases
  // Traced repetitions only; queue wait and service are the nominal phase's.
  std::uint64_t state_samples[kStates]{};
  std::vector<std::uint64_t> submit_ns, gen_late_ns, queue_wait, service;
  double busy_ns = 0;  ///< workers x wall time of the whole schedule
  SimCounts sim;
};

/// One repetition: fresh app, runtime, backend and server, then the whole
/// schedule (warm-up, ladder, overload) driven open loop from this thread.
ServerRep server_rep(const Args& a, unsigned rep, bool traced, Report& r, TraceTotals& tt) {
  ServerRep out;
  const double measured_s = a.seconds / kReps - kWarmupS;
  registry().reset();
  const std::uint64_t t_setup = now_ns();
  ServerRig rig(mix_seed(a.seed, rep), measured_s, traced);
  rig.srv.start();
  TraceEnv te;  // written once, before any worker can read it
  {
    apps::NrwApp::Locals scratch{};
    traced_txn(rig.app.make_txn(0, scratch), te);
  }
  out.setup_s = secs_since(t_setup);

  const Plan& plan = rig.plan;
  const unsigned nph = static_cast<unsigned>(plan.phases.size());
  std::vector<std::uint64_t> offered(nph, 0);
  ThreadTrace& gen = registry().local();  // generator-thread spans
  server::ServerTotals at_warm_end{};
  bool warm = true;
  const SimCounts sim0 = SimCounts::at(rig.rt);
  const std::uint64_t origin = now_ns() + 1'000'000;
  for (const Arrival& ar : plan.arrivals) {
    if (warm && ar.phase != 0) {
      warm = false;
      at_warm_end = rig.srv.counters();
    }
    const std::uint64_t sched = origin + ar.offset_ns;
    std::uint64_t now = now_ns();
    if (sched > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sched - now));
      now = now_ns();
    }
    ReqLocals rl{};
    tm::Txn txn = rig.app.make_txn(ar.slice, rl.nrw);
    rl.sched_ns = sched;
    rl.req = static_cast<std::uint64_t>(&ar - plan.arrivals.data()) + 1;
    rl.phase = ar.phase;
    rl.slice = ar.slice;
    txn.locals = &rl;
    txn.locals_bytes = sizeof(ReqLocals);
    if (traced) {
      txn.step = &traced_step;
      txn.env = &te;
    }
    ++offered[ar.phase];
    if (traced && ar.phase != 0) {
      ++out.state_samples[static_cast<unsigned>(rig.srv.state())];
      out.gen_late_ns.push_back(now > sched ? now - sched : 0);
      const std::uint64_t s0 = now_ns();
      rig.srv.submit(txn, ar.phase, sched);
      const std::uint64_t s1 = now_ns();
      out.submit_ns.push_back(s1 - s0);
      if (rl.req % kSampleEvery == 0) gen.push("server.submit", gen.new_id(), 0, rl.req, s0, s1);
    } else {
      rig.srv.submit(txn, ar.phase, sched);
    }
  }
  double total_s = 0;
  for (const server::Phase& p : plan.phases) total_s += p.duration_s;
  const std::uint64_t end = origin + static_cast<std::uint64_t>(total_s * 1e9);
  if (end > now_ns()) std::this_thread::sleep_for(std::chrono::nanoseconds(end - now_ns()));
  rig.srv.stop();
  out.busy_ns = static_cast<double>(now_ns() - origin) * kServerWorkers;
  out.sim = SimCounts::since(rig.rt, sim0);
  const server::ServerTotals tot = rig.srv.counters();
  add_delta(out.measured, tot, at_warm_end);

  // Merge the workers' thread-local request samples.
  std::vector<std::vector<std::uint64_t>> lat(nph);
  std::vector<std::uint64_t> exec;
  for (ThreadTrace* t : registry().threads()) {
    for (unsigned p = 0; p < nph; ++p)
      lat[p].insert(lat[p].end(), t->req_lat[p].begin(), t->req_lat[p].end());
    for (unsigned p = 1; p < nph; ++p)
      exec.insert(exec.end(), t->exec_lat[p].begin(), t->exec_lat[p].end());
    if (!traced) continue;
    out.queue_wait.insert(out.queue_wait.end(), t->queue_wait[kNominal].begin(),
                          t->queue_wait[kNominal].end());
    out.service.insert(out.service.end(), t->service[kNominal].begin(),
                       t->service[kNominal].end());
    tt.add(*t);
  }

  // Correctness: request conservation, per-phase reconciliation, and the
  // exact NRW destination values of every slice that committed.
  r.attempted += tot.submitted;
  r.check(tot.submitted == tot.accepted + tot.rejected(), "submitted != accepted + rejected");
  r.check(tot.accepted == tot.committed + tot.shed, "accepted != committed + shed");
  std::uint64_t committed_sum = 0;
  for (unsigned p = 0; p < nph; ++p) {
    const server::PhaseTotals pt = rig.srv.phase_totals(p);
    const server::Phase& ph = plan.phases[p];
    committed_sum += pt.committed;
    r.check(pt.accepted + pt.rejected == offered[p],
            "phase " + ph.name + ": accepted + rejected != offered");
    r.check(lat[p].size() == pt.committed && pt.latency_ns.count() == pt.committed,
            "phase " + ph.name + ": latency samples != commits");
    if (p == 0) continue;
    r.note("%-8s %6.0f/s: offered %" PRIu64 " accepted %" PRIu64 " committed %" PRIu64
           " shed %" PRIu64 " rejected %" PRIu64,
           ph.name.c_str(), ph.rate_tps, offered[p], pt.accepted, pt.committed, pt.shed,
           pt.rejected);
    const double p99 = r.pct("  accepted_p99_us", lat[p], 0.99, 1e3, "us");
    if (p <= kRungs && pt.rejected == 0 && pt.shed == 0 && p99 > 0 && p99 <= kSloUs)
      out.slo_rate = std::max(out.slo_rate, ph.rate_tps);
    if (p == kOverload) out.goodput = static_cast<double>(pt.committed) / ph.duration_s;
  }
  r.check(committed_sum == tot.committed, "per-phase commits != server commits");
  out.nominal_p50 = r.pct("nominal_p50_us", lat[kNominal], 0.50, 1e3, "us");
  out.nominal_p99 = r.pct("nominal_p99_us", lat[kNominal], 0.99, 1e3, "us");
  out.overload_p99 = r.pct("overload_p99_us", lat[kOverload], 0.99, 1e3, "us");
  out.exec_p50 = r.pct("execute_p50_us", exec, 0.50, 1e3, "us");
  out.exec_p99 = r.pct("execute_p99_us", exec, 0.99, 1e3, "us");

  const apps::NrwApp::Config nc = ServerRig::nrw_config();
  const std::uint64_t slice_len = nc.array_size / kSlices;
  const std::uint64_t* dst = rig.app.dst();
  for (std::uint64_t s = 0; s < kSlices; ++s) {
    const std::uint64_t base = s * slice_len;
    const std::uint64_t acc = nc.n_reads * base + std::uint64_t{nc.n_reads} * (nc.n_reads - 1) / 2;
    if (dst[base] == 0 && dst[base + 1] == 0) continue;  // slice never committed
    for (std::uint64_t i = 0; i < nc.m_writes; ++i)
      if (dst[base + i] != acc + i) {
        r.fail("NRW slice " + std::to_string(s) + " word " + std::to_string(i) + " holds " +
               std::to_string(dst[base + i]) + ", expected " + std::to_string(acc + i));
        break;
      }
  }
  return out;
}

void run_server(const Args& a, Report& r) {
  std::vector<double> setup, p50, p99, e50, e99, ov_p99, slo, goodput_u, goodput_t;
  server::ServerTotals mu{}, mt{};  // measured counters: untraced, traced reps
  ServerRep tr;                     // traced repetitions, merged
  TraceTotals tt;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    const bool traced = traced_rep(a.trace, rep);
    const ServerRep o = server_rep(a, rep, traced, r, tt);
    r.note("rep %u%s: setup %.4f s; nominal p50 %.1f us, p99 %.1f us; overload %.1f "
           "commits/s, p99 %.1f us; slo rate %.0f /s",
           rep, traced ? " (traced)" : "", o.setup_s, o.nominal_p50, o.nominal_p99,
           o.goodput, o.overload_p99, o.slo_rate);
    setup.push_back(o.setup_s);
    if (!traced) {
      p50.push_back(o.nominal_p50);
      p99.push_back(o.nominal_p99);
      e50.push_back(o.exec_p50);
      e99.push_back(o.exec_p99);
      ov_p99.push_back(o.overload_p99);
      slo.push_back(o.slo_rate);
      goodput_u.push_back(o.goodput);
      add_delta(mu, o.measured, {});
      continue;
    }
    goodput_t.push_back(o.goodput);
    add_delta(mt, o.measured, {});
    for (unsigned s = 0; s < kStates; ++s) tr.state_samples[s] += o.state_samples[s];
    tr.submit_ns.insert(tr.submit_ns.end(), o.submit_ns.begin(), o.submit_ns.end());
    tr.gen_late_ns.insert(tr.gen_late_ns.end(), o.gen_late_ns.begin(), o.gen_late_ns.end());
    tr.queue_wait.insert(tr.queue_wait.end(), o.queue_wait.begin(), o.queue_wait.end());
    tr.service.insert(tr.service.end(), o.service.begin(), o.service.end());
    tr.busy_ns += o.busy_ns;
    tr.sim.add(o.sim);
  }
  if (!a.trace) {
    // txn_* is execute() over every measured phase, as on the closed loops.
    // The p99 of the latency from scheduled arrival moved by more than a
    // factor of two from run to run (host wake-up stalls), and so did the
    // execute() p99 of the nominal phase alone (34 samples beyond it per
    // repetition); both stay per-layer metrics.
    // commits_per_s is the overload phase's goodput.
    r.metric("setup_s", median(setup), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("commits_per_s", median(goodput_u), "1/s");
    r.metric("txn_p50_us", median(e50), "us");
    r.metric("txn_p99_us", median(e99), "us");
    return;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  Layers L;
  L["server.nominal_p50_us"] = {median(p50), "us"};
  L["server.nominal_p99_us"] = {median(p99), "us"};
  L["server.overload_goodput_per_s"] = {median(goodput_u), "1/s"};
  L["server.overload_p99_us"] = {median(ov_p99), "us"};
  L["server.slo_rate_per_s"] = {median(slo), "1/s"};
  L["bench.failed_frac"] = {ratio(d(mu.rejected() + mu.shed), d(mu.submitted)), "ratio"};
  L["bench.trace_overhead_frac"] = {1.0 - ratio(median(goodput_t), median(goodput_u)), "ratio"};
  fill_tm_core(L, r, tt, tr.busy_ns);
  fill_sim(L, tr.sim, tt.executes);
  const double sub = d(mt.submitted);
  L["server.submit_ns_p50"] = {r.pct("server.submit_ns_p50", tr.submit_ns, 0.50, 1, "ns"), "ns"};
  L["server.submit_ns_p99"] = {r.pct("server.submit_ns_p99", tr.submit_ns, 0.99, 1, "ns"), "ns"};
  L["server.queue_wait_us_p50"] = {
      r.pct("server.queue_wait_us_p50", tr.queue_wait, 0.50, 1e3, "us"), "us"};
  L["server.queue_wait_us_p99"] = {
      r.pct("server.queue_wait_us_p99", tr.queue_wait, 0.99, 1e3, "us"), "us"};
  L["server.service_us_p50"] = {r.pct("server.service_us_p50", tr.service, 0.50, 1e3, "us"),
                                "us"};
  L["server.service_us_p99"] = {r.pct("server.service_us_p99", tr.service, 0.99, 1e3, "us"),
                                "us"};
  L["server.reject_frac.overload"] = {ratio(d(mt.rejected_overload), sub), "ratio"};
  L["server.reject_frac.in_flight"] = {ratio(d(mt.rejected_in_flight), sub), "ratio"};
  L["server.reject_frac.pending"] = {ratio(d(mt.rejected_pending), sub), "ratio"};
  L["server.reject_frac.retry"] = {ratio(d(mt.rejected_retry), sub), "ratio"};
  L["server.shed_frac"] = {ratio(d(mt.shed), sub), "ratio"};
  const double samples = d(tr.state_samples[0] + tr.state_samples[1] + tr.state_samples[2]);
  L["server.state_frac.normal"] = {ratio(d(tr.state_samples[0]), samples), "ratio"};
  L["server.state_frac.degraded"] = {ratio(d(tr.state_samples[1]), samples), "ratio"};
  L["server.state_frac.shedding"] = {ratio(d(tr.state_samples[2]), samples), "ratio"};
  L["server.state_transitions"] = {d(mt.degrades[0] + mt.degrades[1] + mt.degrades[2]),
                                   "count"};
  L["server.gen_late_us_p99"] = {
      r.pct("server.gen_late_us_p99", tr.gen_late_ns, 0.99, 1e3, "us"), "us"};
  emit_layers(r, L);
  write_spans(a.trace_out, tt.spans, r);
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args a = pb::parse_args(argc, argv);
  pb::Report r;
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", a.workload.c_str(),
              a.seed, a.seconds, a.trace ? 1 : 0);
  if (a.workload == "skiplist10k") {
    pb::run_closed<pb::SkipTraits>(a, r);
  } else if (a.workload == "list10k") {
    pb::run_closed<pb::ListTraits>(a, r);
  } else if (a.workload == "server") {
    pb::run_server(a, r);
  } else {
    pb::usage(argv[0], ("unknown workload " + a.workload).c_str());
  }
  r.emit();
  return 0;
}
