// Simulated persistence domain: pwb/pfence/psync over a crash-truncatable
// flush queue.
//
// Models the CLWB+SFENCE discipline of eADR-less persistent memory on an
// ADR platform:
//
//  - `pwb(addr)` (persist write-back, CLWB) captures the *current* volatile
//    value of a word and places it on the flush queue ("pending"). A word
//    stored after its pwb is NOT durable until pwb'd again — the model
//    captures the value at pwb time, which is the discipline persistent
//    software must program to anyway (a line may be written back at any
//    moment after the CLWB retires).
//  - `pfence` (SFENCE) drains the whole flush queue into the durable image:
//    on ADR, once the fence retires every previously flushed line is inside
//    the persistence domain. `psync` is the same drain with the stronger
//    cost of waiting out the ADR capacitor path (PSYNC/fdatasync analogue).
//  - A crash freezes the domain at an arbitrary instant: everything durable
//    stays, and each *pending* word independently either made it back or is
//    lost (a seeded per-address coin flip, or an explicit keep-predicate for
//    deterministic torn-write tests). This is the adversary recovery code
//    must survive: fences order persistence, nothing else does.
//  - The flush queue has finite depth (`flush_queue_depth`): overflowing it
//    spontaneously drains the oldest entry, modeling a line evicted by the
//    cache long before any fence — code may never rely on a pwb'd value
//    NOT being durable yet.
//
// Threading: one domain is shared by every worker (it models the memory
// controller). All state is behind a simulator-internal spinlock; the
// latency costs (burn_work) are paid outside it. `pwb_range` writes back a
// run of consecutive words under one lock hold, so a 34-word log cell
// costs one acquisition instead of 34.
//
// Layout: the flush queue is one flat insertion-ordered buffer (finding a
// pending word is a scan of at most `flush_queue_depth` entries and
// allocates nothing); the durable image is a set of shadow pages, one per
// 4 KiB block of addresses, each holding the block's words and a presence
// bitmap, found through a small open-addressed page table. A log cell's
// 34 words land in one page (two if it straddles a page boundary), and
// freeze() copies whole pages.
//
// The domain is only linked in the PHTM_PERSIST=1 flavor (persist.cpp is in
// no other flavor's build — a stray reference from a plain build fails
// loudly at link time, same pattern as sim/fault.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "util/annotations.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"

namespace phtm::persist {

/// The persistence domain: durable image + bounded flush queue.
class alignas(kCacheLineBytes) PersistDomain {
 public:
  PersistDomain() = default;
  explicit PersistDomain(const sim::PersistConfig& cfg) : cfg_(cfg) {}

  /// Replace the latency/queue model (setup-time only).
  void configure(const sim::PersistConfig& cfg);

  /// Persist write-back: capture *addr's current volatile value onto the
  /// flush queue. Durable only after a later pfence/psync (or spontaneous
  /// eviction). Emits one kPersist trace event and bumps st (if given).
  void pwb(std::uint64_t* addr, StatSheet* st = nullptr);

  /// Write back the `n` consecutive words starting at `addr`: exactly `n`
  /// pwb calls in ascending address order (same value capture, queue
  /// order, eviction, counters and ticks, one kPersist event per word),
  /// taking the domain lock once.
  void pwb_range(std::uint64_t* addr, std::size_t n, StatSheet* st = nullptr);

  /// Persist fence: drain every pending write-back into the durable image.
  void pfence(StatSheet* st = nullptr);

  /// Persist sync: pfence plus the full ADR drain cost.
  void psync(StatSheet* st = nullptr);

  /// Seed the durable image directly (mkfs analogue): used by harnesses to
  /// register a word with its initial durable value. Not counted/traced.
  void format(std::uint64_t* addr, std::uint64_t val);

  /// The word's durable value (0 if never formatted/persisted — persistent
  /// memory is presented zeroed, like the TM heap).
  std::uint64_t durable(const std::uint64_t* addr) const;

  /// Durable values of the `n` consecutive words starting at `addr`, into
  /// out[0..n): `n` durable() calls under one lock hold.
  void durable_range(const std::uint64_t* addr, std::size_t n,
                     std::uint64_t* out) const;

  /// Entire durable image, for discard-volatile-state restoration.
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> snapshot_durable() const;

  /// Mark the crash instant: snapshot durable image + flush queue. Later
  /// persist operations keep running on the live state but can no longer
  /// affect the frozen image — a multi-threaded workload can finish its
  /// round normally after one thread hits a crash seam, and everything it
  /// does after the freeze is exactly the work a real crash would have
  /// lost. Idempotent (the first freeze wins). Emits one kCrash event.
  void freeze(StatSheet* st = nullptr);
  bool frozen() const;

  /// Take the crash: durable image := frozen durable image + a per-address
  /// coin-flip subset of the frozen flush queue (hash of (seed, addr), so
  /// the torn prefix is replayable and iteration-order independent). Clears
  /// the queue and unfreezes. Freezes first if nobody did.
  void crash(std::uint64_t seed);

  /// Deterministic crash: `keep` decides per pending address. For
  /// constructing exact torn-record scenarios in tests.
  void crash_keep(const std::function<bool(const std::uint64_t*)>& keep);

  /// Flush-queue occupancy (frozen queue if frozen — what a crash sees).
  std::size_t pending_size() const;

  std::uint64_t pwbs() const;
  std::uint64_t pfences() const;
  std::uint64_t psyncs() const;
  std::uint64_t crashes() const;
  /// Modeled persistence latency paid so far (ticks).
  std::uint64_t ticks() const;

  sim::PersistConfig config() const;

 private:
  /// One pending write-back: the word and the value its pwb captured.
  struct Pending {
    std::uint64_t* addr;
    std::uint64_t val;
  };

  /// The flush queue: pending write-backs in pwb order, oldest first, in
  /// one flat buffer. Entries [head_, buf_.size()) are live; evicting the
  /// oldest only advances head_, and a full buffer drops its dead prefix
  /// once that is at least half of it, so the buffer stays within a small
  /// multiple of the queue depth and a pwb allocates nothing once it has
  /// grown.
  class FlushQueue {
   public:
    std::size_t size() const noexcept { return buf_.size() - head_; }
    const Pending* begin() const noexcept { return buf_.data() + head_; }
    const Pending* end() const noexcept { return buf_.data() + buf_.size(); }
    /// The live entry for `addr`, or nullptr (a scan of the live entries).
    Pending* find(const std::uint64_t* addr) noexcept;
    /// Whether any live entry lies in [lo, hi).
    bool any_in(const std::uint64_t* lo, const std::uint64_t* hi) const noexcept;
    void add_entry(std::uint64_t* addr, std::uint64_t val);
    Pending pop_oldest() noexcept { return buf_[head_++]; }
    void clear() noexcept {
      buf_.clear();
      head_ = 0;
    }

   private:
    std::vector<Pending> buf_;
    std::size_t head_ = 0;
  };

  /// The durable image as shadow pages: one page per 4 KiB block of
  /// addresses holding any durable word, with the block's words and a
  /// presence bitmap (a word formatted or written back as 0 is present; a
  /// word never persisted is absent and reads 0). Pages are found through
  /// an open-addressed page table keyed by page number; the last page
  /// found is remembered, so consecutive words cost one lookup.
  /// Addresses are word-aligned (every caller passes a std::uint64_t*).
  class ShadowImage {
   public:
    ShadowImage() = default;
    ShadowImage(const ShadowImage& o);
    ShadowImage(ShadowImage&& o) noexcept { swap(o); }
    ShadowImage& operator=(ShadowImage o) noexcept {
      swap(o);
      return *this;
    }

    void get_range(const std::uint64_t* addr, std::size_t n,
                   std::uint64_t* out) const noexcept;
    void set_word(std::uint64_t* addr, std::uint64_t val);
    /// Every present word with its value, page by page.
    std::vector<std::pair<std::uint64_t*, std::uint64_t>> present_words() const;

   private:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageWords =
        (std::size_t{1} << kPageShift) / sizeof(std::uint64_t);
    static constexpr std::uintptr_t kNoPage = ~std::uintptr_t{0};

    struct Page {
      std::uint64_t words[kPageWords];
      std::uint64_t present[kPageWords / 64];
      std::uintptr_t number;  ///< address >> kPageShift
    };
    struct Slot {
      std::uintptr_t number;  ///< kNoPage: empty
      Page* page;
    };

    Page* find(std::uintptr_t number) const noexcept;
    Page& find_or_add(std::uintptr_t number);
    void index_page(Page* p) noexcept;
    void swap(ShadowImage& o) noexcept;

    std::vector<std::unique_ptr<Page>> pages_;  ///< creation order
    std::vector<Slot> table_;  ///< power-of-two size, at most half full
    mutable std::uintptr_t hit_number_ = kNoPage;  ///< last page found
    mutable Page* hit_ = nullptr;
  };

  struct Image {
    ShadowImage durable;
    FlushQueue pending;
  };

  void drain_locked() PHTM_REQUIRES(lock_);
  void fence_impl(StatSheet* st, bool sync);

  mutable Spinlock lock_;
  sim::PersistConfig cfg_ PHTM_GUARDED_BY(lock_);
  Image live_ PHTM_GUARDED_BY(lock_);
  Image frozen_img_ PHTM_GUARDED_BY(lock_);
  bool frozen_ PHTM_GUARDED_BY(lock_) = false;
  std::uint64_t pwbs_ PHTM_GUARDED_BY(lock_) = 0;
  std::uint64_t pfences_ PHTM_GUARDED_BY(lock_) = 0;
  std::uint64_t psyncs_ PHTM_GUARDED_BY(lock_) = 0;
  std::uint64_t crashes_ PHTM_GUARDED_BY(lock_) = 0;
  std::uint64_t ticks_ PHTM_GUARDED_BY(lock_) = 0;
};

}  // namespace phtm::persist
