// Durable commit log + crash recovery for persistent PART-HTM (durable
// flavor, PHTM_PERSIST=1).
//
// Write-ahead protocol (DESIGN.md "Durability & recovery"):
//
//   per sub-HTM commit     append UndoChunk cells (old values of the
//                          segment's writes) -> pwb cells -> pfence ->
//                          pwb the data words (unfenced)
//   global commit          pfence (data now durable) -> append Commit
//                          record {seq, shard timestamps} -> pwb ->
//                          pfence -> ONLY THEN release locks
//   global abort           volatile rollback -> pwb rolled-back words ->
//                          pfence -> append Abort record -> pwb ->
//                          pfence -> ONLY THEN release locks
//
// The lock-release-after-outcome-record invariant is what makes recovery
// sound: a transaction that is unresolved at the crash (undo chunks but
// no durable outcome record) still held every write lock when the domain
// froze, so unresolved transactions are pairwise address-disjoint and
// disjoint from every resolved transaction — their undo chunks can be
// replayed in any per-transaction order.
//
// Torn-write safety is structural, not assumed: each record is one
// fixed-size cell with a magic-tagged head and a whole-cell checksum. A
// crash that persists only part of a cell's words leaves a cell that
// fails validation and is treated as absent; the WAL ordering above
// guarantees absence is always the conservative direction (a torn
// UndoChunk implies its data words were never even flushed; a torn
// Commit record implies the locks were never released).
//
// The log's cell array is "persistent memory": its words are pwb'd
// through the PersistDomain and recovery reads ONLY their durable image
// (volatile cell contents may be arbitrary garbage after a crash).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "core/undo.hpp"
#include "obs/trace.hpp"
#include "sim/persist.hpp"
#include "util/cacheline.hpp"
#include "util/stats.hpp"

namespace phtm::persist {

/// What a log cell records.
enum class RecordKind : std::uint8_t {
  kNone = 0,
  kUndoChunk = 1,  ///< up to kCellPairs (addr, displaced value) pairs
  kCommit = 2,     ///< transaction durably committed (carries shard ts)
  kAbort = 3,      ///< transaction durably rolled back
};

inline const char* to_string(RecordKind k) noexcept {
  switch (k) {
    case RecordKind::kNone: return "none";
    case RecordKind::kUndoChunk: return "undo_chunk";
    case RecordKind::kCommit: return "commit";
    case RecordKind::kAbort: return "abort";
  }
  return "?";
}

/// Append-only cell log in simulated persistent memory.
///
/// Cell layout (kCellWords = 34 words):
///   word 0      head: magic(16) | kind(8) | pair count(8) | seq(32)
///   words 1-4   shard timestamps (Commit records; zero otherwise)
///   words 5-32  kCellPairs (addr, old value) pairs (UndoChunk records)
///   word 33     checksum over words 0-32 (never zero)
///
/// Cells are claimed with a wait-free cursor fetch-add, filled privately,
/// then pwb'd whole; a cell becomes visible to recovery only once its
/// words reach the durable image intact (checksum). The cursor and the
/// sequence counter are volatile — recovery rebuilds both from the scan.
class alignas(kCacheLineBytes) DurableLog {
 public:
  static constexpr unsigned kCellWords = 34;
  static constexpr unsigned kCellPairs = 14;
  static constexpr std::uint64_t kCellMagic = 0xD17A;  ///< nonzero, 16 bits

  explicit DurableLog(std::size_t cells = std::size_t{1} << 16)
      : cells_(cells), words_(cells * kCellWords, 0) {}

  std::size_t cells() const noexcept { return cells_; }

  /// First word of cell `i` (recovery reads its *durable* image).
  const std::uint64_t* cell(std::size_t i) const noexcept {
    return &words_[i * kCellWords];
  }

  /// Allocate a fresh durable sequence number (1-based; 0 = "none").
  std::uint64_t alloc_seq() noexcept {
    // relaxed: the sequence number is an identity, not an ordering edge —
    // the WAL fences order everything that matters.
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append `n` undo pairs for transaction `seq` as one or more UndoChunk
  /// cells, pwb-ing every cell word. NO fence: the caller fences once per
  /// sub-commit (chunk-before-data ordering), which also covers all cells
  /// of the chunk.
  void append_undo_chunk(PersistDomain& dom, StatSheet* st, std::uint64_t seq,
                         const core::UndoLog::Entry* entries, std::size_t n) {
    while (n > 0) {
      const unsigned take =
          static_cast<unsigned>(n < kCellPairs ? n : kCellPairs);
      std::uint64_t* c = claim(dom, st);
      c[0] = head_word(RecordKind::kUndoChunk, take, seq);
      for (unsigned t = 1; t <= 4; ++t) c[t] = 0;
      for (unsigned p = 0; p < kCellPairs; ++p) {
        if (p < take) {
          c[5 + 2 * p] = reinterpret_cast<std::uint64_t>(entries[p].addr);
          c[5 + 2 * p + 1] = entries[p].old_val;
        } else {
          c[5 + 2 * p] = 0;
          c[5 + 2 * p + 1] = 0;
        }
      }
      c[kCellWords - 1] = checksum(c);
      dom.pwb_range(c, kCellWords, st);
      entries += take;
      n -= take;
    }
  }

  /// Append a Commit or Abort outcome record for `seq`, pwb-ing the cell.
  /// `shard_ts` (4 words) is recorded for Commit records when non-null.
  /// NO fence: the caller fences (outcome-before-unlock ordering).
  void append_outcome(PersistDomain& dom, StatSheet* st, RecordKind kind,
                      std::uint64_t seq, const std::uint64_t* shard_ts) {
    std::uint64_t* c = claim(dom, st);
    c[0] = head_word(kind, 0, seq);
    for (unsigned t = 0; t < 4; ++t) c[1 + t] = shard_ts ? shard_ts[t] : 0;
    for (unsigned wi = 5; wi < kCellWords - 1; ++wi) c[wi] = 0;
    c[kCellWords - 1] = checksum(c);
    dom.pwb_range(c, kCellWords, st);
  }

  /// Recovery: rebase the volatile cursor/sequence state rebuilt from the
  /// durable scan so post-recovery appends neither collide with surviving
  /// cells nor reuse a surviving sequence number.
  void reset_volatile(std::uint64_t next_cell, std::uint64_t next_seq) noexcept {
    // relaxed: recovery runs quiesced (workload joined); these are plain
    // reinitializations, kept atomic only to pair with the hot-path RMWs.
    cursor_.store(next_cell, std::memory_order_relaxed);
    next_seq_.store(next_seq < 1 ? 1 : next_seq, std::memory_order_relaxed);
  }

  // --- cell encode/decode (shared by append and recovery scan) ---

  static std::uint64_t head_word(RecordKind kind, unsigned count,
                                 std::uint64_t seq) noexcept {
    return (kCellMagic << 48) |
           (static_cast<std::uint64_t>(kind) << 40) |
           (static_cast<std::uint64_t>(count & 0xffu) << 32) |
           (seq & 0xffffffffull);
  }

  static RecordKind head_kind(std::uint64_t head) noexcept {
    const std::uint64_t k = (head >> 40) & 0xffu;
    return k >= 1 && k <= 3 ? static_cast<RecordKind>(k) : RecordKind::kNone;
  }
  static unsigned head_count(std::uint64_t head) noexcept {
    return static_cast<unsigned>((head >> 32) & 0xffu);
  }
  static std::uint64_t head_seq(std::uint64_t head) noexcept {
    return head & 0xffffffffull;
  }

  /// Whole-cell checksum over words 0..32. Never zero, so a torn cell
  /// whose checksum word did not persist (reads as 0) can never validate.
  static std::uint64_t checksum(const std::uint64_t* w) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < kCellWords - 1; ++i) {
      h ^= w[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return h | 1;
  }

  /// Validate a cell's durable image: magic, kind, pair count, checksum.
  static bool valid_cell(const std::uint64_t* d) noexcept {
    if ((d[0] >> 48) != kCellMagic) return false;
    if (head_kind(d[0]) == RecordKind::kNone) return false;
    if (head_count(d[0]) > kCellPairs) return false;
    return checksum(d) == d[kCellWords - 1];
  }

 private:
  std::uint64_t* claim(PersistDomain& dom, StatSheet* st) {
    (void)dom;
    (void)st;
    // relaxed: cell claiming only needs uniqueness; the cell's contents
    // are private until pwb'd and recovery orders by seq, not cell index.
    const std::uint64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= cells_)
      throw std::runtime_error("phtm::persist::DurableLog: log full");
    return &words_[static_cast<std::size_t>(i) * kCellWords];
  }

  std::size_t cells_;
  std::vector<std::uint64_t> words_;  ///< simulated persistent region
  // shared-atomic: wait-free cell cursor and sequence counter, fetch-added
  // by concurrently committing workers; volatile by design (rebuilt from
  // the durable scan on recovery).
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> next_seq_{1};
};

/// What recover() found and did.
struct RecoveryReport {
  std::vector<std::uint64_t> committed;    ///< seqs with a durable Commit
  std::vector<std::uint64_t> aborted;      ///< seqs with a durable Abort
  std::vector<std::uint64_t> rolled_back;  ///< unresolved seqs undone here
  std::uint64_t scanned_cells = 0;  ///< cells with any durable content
  std::uint64_t valid_cells = 0;    ///< cells passing magic+checksum
  std::uint64_t torn_cells = 0;     ///< present but invalid (torn writes)
  std::uint64_t next_cell = 0;      ///< rebuilt append cursor
  std::uint64_t next_seq = 1;       ///< rebuilt sequence counter
  bool complete = false;            ///< false = step budget exhausted
};

/// Crash recovery: restore volatile memory from the durable image, scan
/// the log's durable cells, and roll back every unresolved transaction
/// (undo chunks present, no outcome record) by replaying its chunks in
/// reverse — appending a durable Abort record per rollback so a re-crash
/// during or after recovery finds the transaction resolved (idempotence:
/// replaying a rollback writes the same old values again).
///
/// `max_steps` bounds the number of mutation steps (one per restored undo
/// pair or appended record) — a deliberately small budget models a crash
/// in the middle of recovery: the pass returns complete=false and the
/// harness can crash the domain again and re-run recovery from scratch.
///
/// Runs quiesced: the workload must be joined (or never started) — this
/// is the post-restart single-threaded recovery pass of a real PTM.
inline RecoveryReport recover(PersistDomain& dom, DurableLog& log,
                              StatSheet* st = nullptr,
                              std::uint64_t max_steps = ~std::uint64_t{0}) {
  RecoveryReport rep;

  // Phase 1 — discard volatile state: every word the durable image knows
  // about (heap data and log cells alike) is reset to its durable value.
  // Words never persisted keep their formatted/initial contents, exactly
  // like real persistent memory that was never written back.
  for (const auto& [addr, val] : dom.snapshot_durable()) {
    // raw-atomic: relaxed: quiesced single-threaded restore; atomic only
    // so TSan pairs it with the workload's (joined) transactional stores.
    __atomic_store_n(addr, val, __ATOMIC_RELAXED);
  }

  // Phase 2 — scan: collect every valid cell by transaction seq, reading
  // ONLY the durable image (volatile cell contents are untrusted).
  struct TxnRec {
    std::vector<std::size_t> chunk_cells;  ///< ascending = append order
    bool committed = false;
    bool aborted = false;
  };
  // Sorted by seq: recovery visits transactions in ascending seq, making
  // reports and replay deterministic for tests. Cells arrive in roughly
  // ascending seq, so most inserts land at the end.
  std::vector<std::pair<std::uint64_t, TxnRec>> txns;
  auto rec_of = [&txns](std::uint64_t seq) -> TxnRec& {
    auto it = std::lower_bound(
        txns.begin(), txns.end(), seq,
        [](const auto& e, std::uint64_t s) { return e.first < s; });
    if (it == txns.end() || it->first != seq)
      it = txns.insert(it, {seq, TxnRec{}});
    return it->second;
  };

  std::uint64_t dcell[DurableLog::kCellWords] = {};
  std::uint64_t max_valid = 0;
  bool any_valid = false;
  for (std::size_t i = 0; i < log.cells(); ++i) {
    dom.durable_range(log.cell(i), DurableLog::kCellWords, dcell);
    if (std::all_of(std::begin(dcell), std::end(dcell),
                    [](std::uint64_t w) { return w == 0; }))
      continue;
    ++rep.scanned_cells;
    if (!DurableLog::valid_cell(dcell)) {
      ++rep.torn_cells;
      continue;
    }
    ++rep.valid_cells;
    if (i + 1 > max_valid) max_valid = i + 1;
    any_valid = true;
    const std::uint64_t seq = DurableLog::head_seq(dcell[0]);
    if (seq + 1 > rep.next_seq) rep.next_seq = seq + 1;
    TxnRec& tr = rec_of(seq);
    switch (DurableLog::head_kind(dcell[0])) {
      case RecordKind::kNone: break;  // unreachable (valid_cell rejects it)
      case RecordKind::kUndoChunk: tr.chunk_cells.push_back(i); break;
      case RecordKind::kCommit: tr.committed = true; break;
      case RecordKind::kAbort: tr.aborted = true; break;
    }
  }
  rep.next_cell = any_valid ? max_valid : 0;
  log.reset_volatile(rep.next_cell, rep.next_seq);

  // Phase 3 — resolve: a durable outcome record settles the transaction
  // (Commit: its data was fenced durable before the record existed;
  // Abort: its rollback was). No outcome = unresolved: replay its undo
  // chunks newest-first (reverse cell order, reverse pairs within a
  // cell) so the oldest displaced value lands last, then write a durable
  // Abort record before anything else may touch those words.
  std::uint64_t steps = 0;
  for (auto& [seq, tr] : txns) {
    if (tr.committed) {
      rep.committed.push_back(seq);
      continue;
    }
    if (tr.aborted) {
      rep.aborted.push_back(seq);
      continue;
    }
    for (auto ci = tr.chunk_cells.rbegin(); ci != tr.chunk_cells.rend(); ++ci) {
      dom.durable_range(log.cell(*ci), DurableLog::kCellWords, dcell);
      const unsigned count = DurableLog::head_count(dcell[0]);
      for (unsigned p = count; p-- > 0;) {
        if (steps >= max_steps) goto budget_exhausted;
        ++steps;
        auto* addr = reinterpret_cast<std::uint64_t*>(dcell[5 + 2 * p]);
        const std::uint64_t old_val = dcell[5 + 2 * p + 1];
        // raw-atomic: relaxed: quiesced undo replay (see phase 1).
        __atomic_store_n(addr, old_val, __ATOMIC_RELAXED);
        dom.pwb(addr, st);
      }
    }
    if (steps >= max_steps) goto budget_exhausted;
    ++steps;
    dom.pfence(st);  // rolled-back values durable before the verdict
    log.append_outcome(dom, st, RecordKind::kAbort, seq, nullptr);
    dom.pfence(st);
    rep.rolled_back.push_back(seq);
  }
  dom.psync(st);
  rep.complete = true;

budget_exhausted:
  if (st != nullptr) st->add_recovery();
  PHTM_TRACE_RECOVERY(rep.rolled_back.size(), rep.torn_cells);
  return rep;
}

}  // namespace phtm::persist
