#include "sim/persist.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"
#include "sim/runtime.hpp"

namespace phtm::persist {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-address crash coin flip: pure function of (seed, addr), independent
/// of container iteration order, so a torn prefix replays exactly from the
/// seed alone.
bool crash_keeps(std::uint64_t seed, const std::uint64_t* addr) {
  return (splitmix64(seed ^ reinterpret_cast<std::uint64_t>(addr)) & 1) != 0;
}

/// Home slot of a page number in a page table of `mask + 1` slots.
std::size_t slot_of(std::uintptr_t number, std::size_t mask) {
  return static_cast<std::size_t>((number * 0x9e3779b97f4a7c15ull) >> 32) & mask;
}

}  // namespace

// --- flush queue ---

PersistDomain::Pending* PersistDomain::FlushQueue::find(
    const std::uint64_t* addr) noexcept {
  for (auto it = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
       it != buf_.end(); ++it) {
    if (it->addr == addr) return &*it;
  }
  return nullptr;
}

bool PersistDomain::FlushQueue::any_in(const std::uint64_t* lo,
                                       const std::uint64_t* hi) const noexcept {
  return std::any_of(begin(), end(), [lo, hi](const Pending& e) {
    return std::less_equal<>{}(lo, e.addr) && std::less<>{}(e.addr, hi);
  });
}

void PersistDomain::FlushQueue::add_entry(std::uint64_t* addr, std::uint64_t val) {
  // Full: drop the dead prefix when it is at least half the buffer, so each
  // compaction moves at most as many entries as pushes since the last one;
  // otherwise let the buffer double.
  if (buf_.size() == buf_.capacity() && 2 * head_ >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.push_back(Pending{addr, val});
}

// --- shadow-page durable image ---

PersistDomain::ShadowImage::ShadowImage(const ShadowImage& o) {
  pages_.reserve(o.pages_.size());
  table_.assign(o.table_.size(), Slot{kNoPage, nullptr});
  for (const std::unique_ptr<Page>& p : o.pages_) {
    pages_.push_back(std::make_unique<Page>(*p));
    index_page(pages_.back().get());
  }
}

void PersistDomain::ShadowImage::swap(ShadowImage& o) noexcept {
  pages_.swap(o.pages_);
  table_.swap(o.table_);
  std::swap(hit_number_, o.hit_number_);
  std::swap(hit_, o.hit_);
}

void PersistDomain::ShadowImage::index_page(Page* p) noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t s = slot_of(p->number, mask);
  while (table_[s].number != kNoPage) s = (s + 1) & mask;
  table_[s] = Slot{p->number, p};
}

PersistDomain::ShadowImage::Page* PersistDomain::ShadowImage::find(
    std::uintptr_t number) const noexcept {
  if (number == hit_number_) return hit_;
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t s = slot_of(number, mask);; s = (s + 1) & mask) {
    if (table_[s].number == number) {
      hit_number_ = number;
      hit_ = table_[s].page;
      return hit_;
    }
    if (table_[s].number == kNoPage) return nullptr;
  }
}

PersistDomain::ShadowImage::Page& PersistDomain::ShadowImage::find_or_add(
    std::uintptr_t number) {
  if (Page* p = find(number)) return *p;
  if (2 * (pages_.size() + 1) > table_.size()) {
    table_.assign(table_.empty() ? 64 : 2 * table_.size(), Slot{kNoPage, nullptr});
    for (const std::unique_ptr<Page>& p : pages_) index_page(p.get());
  }
  pages_.push_back(std::make_unique<Page>());  // zeroed: no word present
  Page* p = pages_.back().get();
  p->number = number;
  index_page(p);
  hit_number_ = number;
  hit_ = p;
  return *p;
}

void PersistDomain::ShadowImage::get_range(const std::uint64_t* addr,
                                           std::size_t n,
                                           std::uint64_t* out) const noexcept {
  while (n > 0) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::size_t w = (a >> 3) & (kPageWords - 1);
    const std::size_t take = std::min(n, kPageWords - w);
    // An absent word is 0 in its page, so a present page copies as is.
    if (const Page* p = find(a >> kPageShift)) {
      std::copy_n(p->words + w, take, out);
    } else {
      std::fill_n(out, take, std::uint64_t{0});
    }
    addr += take;
    out += take;
    n -= take;
  }
}

void PersistDomain::ShadowImage::set_word(std::uint64_t* addr, std::uint64_t val) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  Page& p = find_or_add(a >> kPageShift);
  const std::size_t w = (a >> 3) & (kPageWords - 1);
  p.words[w] = val;
  p.present[w / 64] |= std::uint64_t{1} << (w % 64);
}

std::vector<std::pair<std::uint64_t*, std::uint64_t>>
PersistDomain::ShadowImage::present_words() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Page>& p : pages_) {
    for (const std::uint64_t m : p->present) n += static_cast<std::size_t>(std::popcount(m));
  }
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> out;
  out.reserve(n);
  for (const std::unique_ptr<Page>& p : pages_) {
    const std::uintptr_t base = p->number << kPageShift;
    for (std::size_t b = 0; b < kPageWords / 64; ++b) {
      for (std::uint64_t m = p->present[b]; m != 0; m &= m - 1) {
        const std::size_t w = b * 64 + static_cast<std::size_t>(std::countr_zero(m));
        out.emplace_back(reinterpret_cast<std::uint64_t*>(base + w * sizeof(std::uint64_t)),
                         p->words[w]);
      }
    }
  }
  return out;
}

// --- the domain ---

void PersistDomain::configure(const sim::PersistConfig& cfg) {
  LockGuard<Spinlock> g(lock_);
  cfg_ = cfg;
}

void PersistDomain::drain_locked() {
  for (const Pending& e : live_.pending) live_.durable.set_word(e.addr, e.val);
  live_.pending.clear();
}

void PersistDomain::pwb(std::uint64_t* addr, StatSheet* st) {
  pwb_range(addr, 1, st);
}

void PersistDomain::pwb_range(std::uint64_t* addr, std::size_t n,
                              StatSheet* st) {
  std::uint64_t lat = 0;
  {
    LockGuard<Spinlock> g(lock_);
    lat = cfg_.flush_latency_ticks;
    FlushQueue& q = live_.pending;
    // The range's words are distinct, so a word can only be pending from a
    // write-back before this call; with none in range, every word is a new
    // entry and the per-word lookups are skipped.
    const bool fresh = !q.any_in(addr, addr + n);
    for (std::uint64_t* w = addr; w != addr + n; ++w) {
      // raw-atomic: capture the word's current volatile value at pwb time
      // (the model's CLWB snapshot semantics, header comment).
      // relaxed: value capture only — persistence ordering comes from
      // pfence, never from the write-back itself.
      const std::uint64_t val = __atomic_load_n(w, __ATOMIC_RELAXED);
      if (Pending* p = fresh ? nullptr : q.find(w)) {
        p->val = val;
      } else {
        q.add_entry(w, val);
      }
      // Finite flush queue: overflowing spontaneously evicts the oldest
      // entry into the durable image (a line written back long before any
      // fence — pwb'd state may persist at ANY later moment).
      while (q.size() > cfg_.flush_queue_depth) {
        const Pending oldest = q.pop_oldest();
        live_.durable.set_word(oldest.addr, oldest.val);
      }
    }
    pwbs_ += n;
    ticks_ += n * lat;
  }
  sim::burn_work(n * lat);
  for (std::size_t i = 0; i < n; ++i) {
    PHTM_TRACE_PERSIST(PersistOp::kPwb);
    if (st) st->add_persist(PersistOp::kPwb);
  }
}

void PersistDomain::fence_impl(StatSheet* st, bool sync) {
  std::uint64_t cost = 0;
  {
    LockGuard<Spinlock> g(lock_);
    drain_locked();
    // psync additionally waits out the ADR capacitor path; model that as a
    // second fence worth of latency.
    cost = sync ? 2 * cfg_.fence_cost_ticks : cfg_.fence_cost_ticks;
    if (sync) {
      ++psyncs_;
    } else {
      ++pfences_;
    }
    ticks_ += cost;
  }
  sim::burn_work(cost);
  PHTM_TRACE_PERSIST(sync ? PersistOp::kPsync : PersistOp::kPfence);
  if (st) st->add_persist(sync ? PersistOp::kPsync : PersistOp::kPfence);
}

void PersistDomain::pfence(StatSheet* st) { fence_impl(st, /*sync=*/false); }
void PersistDomain::psync(StatSheet* st) { fence_impl(st, /*sync=*/true); }

void PersistDomain::format(std::uint64_t* addr, std::uint64_t val) {
  LockGuard<Spinlock> g(lock_);
  live_.durable.set_word(addr, val);
}

std::uint64_t PersistDomain::durable(const std::uint64_t* addr) const {
  std::uint64_t val = 0;
  durable_range(addr, 1, &val);
  return val;
}

void PersistDomain::durable_range(const std::uint64_t* addr, std::size_t n,
                                  std::uint64_t* out) const {
  LockGuard<Spinlock> g(lock_);
  live_.durable.get_range(addr, n, out);
}

std::vector<std::pair<std::uint64_t*, std::uint64_t>>
PersistDomain::snapshot_durable() const {
  LockGuard<Spinlock> g(lock_);
  return live_.durable.present_words();
}

void PersistDomain::freeze(StatSheet* st) {
  {
    LockGuard<Spinlock> g(lock_);
    if (frozen_) return;  // first crash seam wins
    frozen_ = true;
    frozen_img_ = live_;
    ++crashes_;
  }
  PHTM_TRACE_CRASH();
  if (st) st->add_crash();
}

bool PersistDomain::frozen() const {
  LockGuard<Spinlock> g(lock_);
  return frozen_;
}

void PersistDomain::crash(std::uint64_t seed) {
  crash_keep([seed](const std::uint64_t* addr) {
    return crash_keeps(seed, addr);
  });
}

void PersistDomain::crash_keep(
    const std::function<bool(const std::uint64_t*)>& keep) {
  LockGuard<Spinlock> g(lock_);
  // The crash lands on the frozen image, or on the live one if nobody
  // froze: its durable words stay and each pending word survives iff kept.
  if (frozen_) live_.durable = std::move(frozen_img_.durable);
  const Image& at_crash = frozen_ ? frozen_img_ : live_;
  for (const Pending& e : at_crash.pending) {
    if (keep(e.addr)) live_.durable.set_word(e.addr, e.val);
  }
  live_.pending.clear();
  frozen_img_ = Image{};
  frozen_ = false;
}

std::size_t PersistDomain::pending_size() const {
  LockGuard<Spinlock> g(lock_);
  return frozen_ ? frozen_img_.pending.size() : live_.pending.size();
}

std::uint64_t PersistDomain::pwbs() const {
  LockGuard<Spinlock> g(lock_);
  return pwbs_;
}
std::uint64_t PersistDomain::pfences() const {
  LockGuard<Spinlock> g(lock_);
  return pfences_;
}
std::uint64_t PersistDomain::psyncs() const {
  LockGuard<Spinlock> g(lock_);
  return psyncs_;
}
std::uint64_t PersistDomain::crashes() const {
  LockGuard<Spinlock> g(lock_);
  return crashes_;
}
std::uint64_t PersistDomain::ticks() const {
  LockGuard<Spinlock> g(lock_);
  return ticks_;
}

sim::PersistConfig PersistDomain::config() const {
  LockGuard<Spinlock> g(lock_);
  return cfg_;
}

}  // namespace phtm::persist
