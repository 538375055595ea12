// Repository benchmark, _persist library flavour: workload durable.
//
//   pb_durable --workload durable --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// A closed loop of 2 threads runs two-account bank transfers on
// PartHtmBackend in durable mode (set_persist). Two, not four: every
// persistence op takes the domain-wide spinlock, and with four clients on a
// 4-core host a preempted lock holder stalls the others, so the tail moved
// by a factor of two from run to run while throughput was lower than with
// two clients. Work is cut into fixed-size
// batches; each batch gets a fresh persistence domain and a fixed-length
// log (so the log can never fill), and ends, with every thread quiescent,
// in freeze -> crash -> persist::recover() -> verify. Transfer pairs are
// drawn from --seed before timing starts.
#include <barrier>
#include <thread>

#include "core/part_htm.hpp"
#include "harness.hpp"
#include "sim/config.hpp"
#include "sim/persist.hpp"
#include "sim/runtime.hpp"
#include "tm/heap.hpp"

namespace pb {
namespace {

constexpr unsigned kThreads = 2;
constexpr unsigned kAccounts = 1024;
constexpr unsigned kStride = 8;  // one account per cache line
constexpr std::uint64_t kInitBalance = 1'000'000;
constexpr unsigned kBatch = 4096;            // transfers per batch, all threads
constexpr std::size_t kLogCells = 6 * kBatch;  // fixed log length per batch
constexpr std::size_t kStream = std::size_t{1} << 14;

struct Transfer {
  std::uint32_t from, to;
  std::uint64_t amount;
};

struct Env {
  std::uint64_t* accounts;
};

struct Locals {
  std::uint64_t from, to, amount;
};

bool transfer_step(tm::Ctx& c, const void* envp, void* lp, unsigned) {
  const Env& e = *static_cast<const Env*>(envp);
  const Locals& l = *static_cast<const Locals*>(lp);
  std::uint64_t* from = e.accounts + l.from * kStride;
  std::uint64_t* to = e.accounts + l.to * kStride;
  const std::uint64_t fv = c.read(from);
  const std::uint64_t tv = c.read(to);
  c.write(from, fv - l.amount);
  c.write(to, tv + l.amount);
  return false;
}

/// A repetition's RepOut (`secs` is batch execution only, without crash,
/// recover and verify) plus what its crashes and recoveries measured.
struct DurableRep : RepOut {
  std::vector<double> recover_ms;
  std::vector<double> cells_scanned;
  std::uint64_t log_cells = 0;
  std::uint64_t rolled_back = 0;
  StatSheet recovery_sheet{};
};

/// Fresh persistent state for one batch: domain, log, formatted accounts.
struct Durable {
  std::unique_ptr<persist::PersistDomain> dom;
  std::unique_ptr<persist::DurableLog> log;
  Durable(const sim::HtmConfig& hc, std::uint64_t* accounts)
      : dom(std::make_unique<persist::PersistDomain>(hc.persist)),
        log(std::make_unique<persist::DurableLog>(kLogCells)) {
    for (unsigned i = 0; i < kAccounts; ++i)
      dom->format(&accounts[i * kStride], accounts[i * kStride]);
  }
};

DurableRep durable_rep(const Args& a, unsigned rep, bool traced, Report& r, WindowStats& ws) {
  DurableRep out;
  const std::uint64_t t_setup = now_ns();
  std::vector<std::vector<Transfer>> streams(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    Rng rng(mix_seed(a.seed, rep, t));
    for (std::size_t i = 0; i < kStream; ++i) {
      const auto from = static_cast<std::uint32_t>(rng.below(kAccounts));
      auto to = static_cast<std::uint32_t>(rng.below(kAccounts - 1));
      if (to >= from) ++to;
      streams[t].push_back(Transfer{from, to, 1 + rng.below(100)});
    }
  }
  sim::HtmConfig hc = sim::HtmConfig::haswell4c8t();
  hc.seed = mix_seed(a.seed, rep, 99);
  sim::HtmRuntime rt(hc);
  core::PartHtmBackend be(rt, tm::BackendConfig{},
                          core::PartHtmBackend::Mode::kSerializable, /*no_fast=*/false);
  std::uint64_t* accounts = tm::TmHeap::instance().alloc_array<std::uint64_t>(
      std::size_t{kAccounts} * kStride);
  for (unsigned i = 0; i < kAccounts; ++i) accounts[i * kStride] = kInitBalance;
  const Env env{accounts};
  if (traced) registry().reset();

  // std::barrier blocks in the kernel once its short spin is over: a
  // yielding spin barrier would keep the main thread runnable beside the
  // workers and preempt lock holders.
  std::barrier<> bar(kThreads + 1);
  std::atomic<bool> quit{false};
  std::atomic<bool> timed{false};
  std::vector<std::vector<std::uint64_t>> lat(kThreads);
  auto body = [&](unsigned tid) {
    std::unique_ptr<tm::Worker> w = be.make_worker(tid);
    Locals l{};
    tm::Txn txn;
    txn.step = &transfer_step;
    txn.env = &env;
    txn.locals = &l;
    txn.locals_bytes = sizeof(Locals);
    TraceEnv te;
    const tm::Txn ttxn = traced_txn(txn, te);
    ThreadTrace* tt = traced ? &registry().local() : nullptr;
    const std::vector<Transfer>& s = streams[tid];
    std::size_t pos = 0;
    for (;;) {
      bar.arrive_and_wait();  // batch start (or quit)
      if (quit.load()) return;
      const bool measure = timed.load();
      for (unsigned i = 0; i < kBatch / kThreads; ++i) {
        const Transfer& x = s[pos++ % s.size()];
        l = Locals{x.from, x.to, x.amount};
        if (measure && tt != nullptr) {
          traced_execute(be, *w, ttxn, *tt, (std::uint64_t{tid} << 40) | pos);
        } else {
          const std::uint64_t t0 = now_ns();
          be.execute(*w, txn);
          if (measure) lat[tid].push_back(now_ns() - t0);
        }
      }
      bar.arrive_and_wait();  // batch done
    }
  };
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) ts.emplace_back(body, t);

  ThreadTrace* main_tt = traced ? &registry().local() : nullptr;
  StatSheet rec_sheet{};
  unsigned batch = 0;
  // One batch: run it, crash at quiescence, recover, verify.
  auto run_batch = [&](bool measure) {
    Durable d(hc, accounts);
    be.set_persist(d.dom.get(), d.log.get());
    timed.store(measure);
    bar.arrive_and_wait();
    const std::uint64_t t0 = now_ns();
    bar.arrive_and_wait();
    const double secs = secs_since(t0);
    if (measure && !traced) {  // the batch is one window
      std::vector<std::uint64_t> win;
      for (std::vector<std::uint64_t>& v : lat) {
        win.insert(win.end(), v.begin(), v.end());
        v.clear();
      }
      ws.add(win, secs);
    }

    std::vector<std::uint64_t> image(kAccounts);
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kAccounts; ++i) image[i] = accounts[i * kStride];
    const std::uint64_t c0 = now_ns();
    d.dom->freeze(&rec_sheet);
    d.dom->crash(mix_seed(a.seed, rep, 1000 + batch));
    const std::uint64_t c1 = now_ns();
    const persist::RecoveryReport rr = persist::recover(*d.dom, *d.log, &rec_sheet);
    const std::uint64_t c2 = now_ns();
    if (main_tt != nullptr && measure) {
      const std::uint64_t req = (std::uint64_t{1} << 62) | batch;
      main_tt->push("persist.crash", main_tt->new_id(), 0, req, c0, c1);
      main_tt->push("persist.recover", main_tt->new_id(), 0, req, c1, c2);
    }
    bool same = true;
    for (unsigned i = 0; i < kAccounts; ++i) {
      same = same && accounts[i * kStride] == image[i];
      total += accounts[i * kStride];
    }
    r.check(rr.complete, "recovery did not complete");
    r.check(same, "recovered image differs from the pre-crash image");
    r.check(rr.rolled_back.empty(),
            std::to_string(rr.rolled_back.size()) + " transactions rolled back at quiescence");
    r.check(rr.committed.size() == kBatch,
            "recovered " + std::to_string(rr.committed.size()) + " commits, batch ran " +
                std::to_string(kBatch));
    r.check(total == std::uint64_t{kAccounts} * kInitBalance, "bank total not conserved");
    r.check(rr.next_cell < kLogCells, "log filled");
    be.set_persist(nullptr, nullptr);
    if (measure) {
      out.recover_ms.push_back(static_cast<double>(c2 - c1) / 1e6);
      out.cells_scanned.push_back(static_cast<double>(rr.scanned_cells));
      out.log_cells += rr.next_cell;
      out.rolled_back += rr.rolled_back.size();
      out.commits += kBatch;
      out.secs += secs;
    }
    ++batch;
  };

  run_batch(false);  // warm-up batch: site table, monitor chunks, first faults
  out.setup_s = secs_since(t_setup);
  const double rep_secs = a.seconds / kReps;
  const std::uint64_t t0 = now_ns();
  const StatSheet rec0 = rec_sheet;
  const SimCounts sim0 = SimCounts::at(rt);
  while (secs_since(t0) < rep_secs) run_batch(true);
  out.recovery_sheet = sheet_delta(rec_sheet, rec0);
  quit.store(true);
  bar.arrive_and_wait();
  for (std::thread& t : ts) t.join();
  out.sim = SimCounts::since(rt, sim0);
  r.attempted += out.commits;
  return out;
}

void run_durable(const Args& a, Report& r) {
  ClosedRun run(kThreads);
  WindowStats ws;
  std::vector<double> recover_ms, scanned;
  std::uint64_t log_cells = 0, commits_t = 0, rolled_back = 0;
  StatSheet rec_t{};
  for (unsigned rep = 0; rep < kReps; ++rep) {
    const bool traced = traced_rep(a.trace, rep);
    const DurableRep o = durable_rep(a, rep, traced, r, ws);
    run.add(r, rep, traced, o);
    if (!traced) {
      recover_ms.push_back(median(o.recover_ms));
      continue;
    }
    log_cells += o.log_cells;
    commits_t += o.commits;
    rolled_back += o.rolled_back;
    rec_t += o.recovery_sheet;
    scanned.insert(scanned.end(), o.cells_scanned.begin(), o.cells_scanned.end());
  }
  r.note("recover_ms (median of batch medians) %.4f", median(recover_ms));
  if (!a.trace) return run.end_to_end(r, ws);

  Layers L = run.layers(r);
  // Persistence ops of the commit path plus the recovery passes, per commit.
  StatSheet ops = run.tt.sheet;
  ops += rec_t;
  const double c = static_cast<double>(commits_t);
  const auto per_commit = [&](PersistOp op) {
    return Metric{ratio(static_cast<double>(ops.persists[static_cast<unsigned>(op)]), c),
                  "count"};
  };
  L["persist.pwb_per_commit"] = per_commit(PersistOp::kPwb);
  L["persist.pfence_per_commit"] = per_commit(PersistOp::kPfence);
  L["persist.psync_per_commit"] = per_commit(PersistOp::kPsync);
  L["persist.log_cells_per_commit"] = {ratio(static_cast<double>(log_cells), c), "count"};
  L["persist.recover_cells_scanned"] = {median(scanned), "count"};
  L["persist.rolled_back"] = {static_cast<double>(rolled_back), "count"};
  L["persist.recover_ms"] = {median(recover_ms), "ms"};
  emit_layers(r, L);
  write_spans(a.trace_out, run.tt.spans, r);
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args a = pb::parse_args(argc, argv);
  pb::Report r;
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", a.workload.c_str(),
              a.seed, a.seconds, a.trace ? 1 : 0);
  if (a.workload != "durable") pb::usage(argv[0], ("unknown workload " + a.workload).c_str());
  pb::run_durable(a, r);
  r.emit();
  return 0;
}
