// Unit tests for the simulated persistence domain (sim/persist.hpp):
// pwb value-capture semantics, fence drains, finite flush-queue eviction,
// freeze-and-continue isolation and seeded crash determinism, plus a
// differential check of the domain against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/persist.hpp"

namespace phtm::test {
namespace {

using persist::PersistDomain;

sim::PersistConfig fast_cfg(unsigned depth = 64) {
  sim::PersistConfig c;
  c.flush_latency_ticks = 1;
  c.fence_cost_ticks = 2;
  c.flush_queue_depth = depth;
  return c;
}

TEST(PersistDomain, PwbCapturesValueAtPwbTimeNotFenceTime) {
  PersistDomain dom(fast_cfg());
  std::uint64_t x = 1;
  dom.pwb(&x);
  x = 2;  // store after the write-back: NOT covered by the earlier pwb
  dom.pfence();
  EXPECT_EQ(dom.durable(&x), 1u);
  dom.pwb(&x);
  dom.pfence();
  EXPECT_EQ(dom.durable(&x), 2u);
}

TEST(PersistDomain, RePwbBeforeFenceUpdatesPendingValueInPlace) {
  PersistDomain dom(fast_cfg());
  std::uint64_t x = 1;
  dom.pwb(&x);
  x = 7;
  dom.pwb(&x);  // same word again: pending entry updated, one queue slot
  EXPECT_EQ(dom.pending_size(), 1u);
  dom.pfence();
  EXPECT_EQ(dom.durable(&x), 7u);
}

TEST(PersistDomain, UnpersistedWordReadsZeroLikeFreshMedia) {
  PersistDomain dom(fast_cfg());
  std::uint64_t x = 42;
  EXPECT_EQ(dom.durable(&x), 0u);
  dom.format(&x, 42);
  EXPECT_EQ(dom.durable(&x), 42u);
}

TEST(PersistDomain, FiniteQueueEvictsOldestSpontaneously) {
  PersistDomain dom(fast_cfg(/*depth=*/4));
  std::vector<std::uint64_t> words(8);
  for (unsigned i = 0; i < 8; ++i) {
    words[i] = 100 + i;
    dom.pwb(&words[i]);
  }
  EXPECT_EQ(dom.pending_size(), 4u);
  // The four oldest write-backs were evicted into the durable image long
  // before any fence — pwb'd state may persist at ANY later moment.
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(dom.durable(&words[i]), 100 + i);
  // A crash that keeps nothing pending still finds the evicted words.
  dom.crash_keep([](const std::uint64_t*) { return false; });
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(dom.durable(&words[i]), 100 + i);
  for (unsigned i = 4; i < 8; ++i) EXPECT_EQ(dom.durable(&words[i]), 0u);
}

TEST(PersistDomain, FreezeIsolatesPostFreezeProgress) {
  PersistDomain dom(fast_cfg());
  std::uint64_t x = 5, y = 6;
  dom.pwb(&x);
  dom.freeze();  // crash instant: x pending, y unknown
  EXPECT_TRUE(dom.frozen());
  // Post-freeze execution continues but is work the crash will lose.
  dom.pfence();
  dom.pwb(&y);
  dom.pfence();
  EXPECT_EQ(dom.durable(&y), 6u);  // live image advanced...
  dom.crash_keep([](const std::uint64_t*) { return true; });
  // ...but the crash lands on the frozen image: x (pending, kept), no y.
  EXPECT_EQ(dom.durable(&x), 5u);
  EXPECT_EQ(dom.durable(&y), 0u);
  EXPECT_FALSE(dom.frozen());
}

TEST(PersistDomain, FreezeIsIdempotentFirstWins) {
  PersistDomain dom(fast_cfg());
  std::uint64_t x = 1;
  dom.pwb(&x);
  dom.freeze();
  dom.pfence();
  dom.freeze();  // second freeze: no-op, the first image stands
  EXPECT_EQ(dom.crashes(), 1u);
  dom.crash_keep([](const std::uint64_t*) { return false; });
  EXPECT_EQ(dom.durable(&x), 0u);  // x was pending (not durable) at freeze
}

TEST(PersistDomain, SeededCrashIsDeterministicPerAddress) {
  // Two identical executions with the same seed must produce identical
  // durable images (the torn prefix is a pure function of (seed, addr)).
  std::vector<std::uint64_t> words(32, 9);
  auto run = [&](std::uint64_t seed) {
    PersistDomain dom(fast_cfg());
    for (auto& w : words) dom.pwb(&w);
    dom.crash(seed);
    std::vector<std::uint64_t> image;
    for (auto& w : words) image.push_back(dom.durable(&w));
    return image;
  };
  const auto a = run(77), b = run(77), c = run(78);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c) << "distinct seeds should tear differently (32 coin flips)";
  // A seeded crash keeps a strict subset in general: some word survives,
  // some word is lost, across these 32 pending entries.
  bool kept = false, lost = false;
  for (auto v : a) (v == 9 ? kept : lost) = true;
  EXPECT_TRUE(kept);
  EXPECT_TRUE(lost);
}

TEST(PersistDomain, CountersAndTicksAdvance) {
  PersistDomain dom(fast_cfg());
  StatSheet st;
  std::uint64_t x = 3;
  dom.pwb(&x, &st);
  dom.pfence(&st);
  dom.psync(&st);
  EXPECT_EQ(dom.pwbs(), 1u);
  EXPECT_EQ(dom.pfences(), 1u);
  EXPECT_EQ(dom.psyncs(), 1u);
  EXPECT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPwb)], 1u);
  EXPECT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPfence)], 1u);
  EXPECT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPsync)], 1u);
  // testing-profile-shaped costs: 1 (pwb) + 2 (fence) + 4 (sync = 2x).
  EXPECT_EQ(dom.ticks(), 1u + 2u + 4u);
}

// --- differential check against a reference model ---

/// The domain's contract written the plain way: a hash-map durable image
/// and a deque flush queue, every operation a direct transcription of the
/// header comment. The real domain must be indistinguishable from it.
class RefDomain {
 public:
  explicit RefDomain(const sim::PersistConfig& cfg) : cfg_(cfg) {}

  void pwb(std::uint64_t* addr) {
    auto [it, fresh] = live_.pending.emplace(addr, *addr);
    if (fresh) {
      live_.order.push_back(addr);
    } else {
      it->second = *addr;
    }
    while (live_.order.size() > cfg_.flush_queue_depth) {
      std::uint64_t* oldest = live_.order.front();
      live_.order.pop_front();
      live_.durable[oldest] = live_.pending[oldest];
      live_.pending.erase(oldest);
    }
    ++pwbs_;
    ticks_ += cfg_.flush_latency_ticks;
  }
  void pwb_range(std::uint64_t* addr, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) pwb(&addr[i]);
  }
  void fence(bool sync) {
    for (std::uint64_t* a : live_.order) live_.durable[a] = live_.pending[a];
    live_.pending.clear();
    live_.order.clear();
    ++(sync ? psyncs_ : pfences_);
    ticks_ += sync ? 2 * cfg_.fence_cost_ticks : cfg_.fence_cost_ticks;
  }
  void format(std::uint64_t* addr, std::uint64_t val) { live_.durable[addr] = val; }
  std::uint64_t durable(std::uint64_t* addr) const {
    const auto it = live_.durable.find(addr);
    return it == live_.durable.end() ? 0 : it->second;
  }
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> snapshot() const {
    std::vector<std::pair<std::uint64_t*, std::uint64_t>> out(live_.durable.begin(),
                                                              live_.durable.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  void freeze() {
    if (frozen_) return;
    frozen_ = true;
    frozen_img_ = live_;
    ++crashes_;
  }
  template <typename Keep>
  void crash_keep(Keep keep) {
    if (!frozen_) frozen_img_ = live_;
    live_.durable = frozen_img_.durable;
    for (std::uint64_t* a : frozen_img_.order) {
      if (keep(a)) live_.durable[a] = frozen_img_.pending[a];
    }
    live_.pending.clear();
    live_.order.clear();
    frozen_img_ = Image{};
    frozen_ = false;
  }
  bool frozen() const { return frozen_; }
  std::size_t pending_size() const {
    return frozen_ ? frozen_img_.order.size() : live_.order.size();
  }

  std::uint64_t pwbs_ = 0, pfences_ = 0, psyncs_ = 0, crashes_ = 0, ticks_ = 0;

 private:
  struct Image {
    std::unordered_map<std::uint64_t*, std::uint64_t> durable;
    std::unordered_map<std::uint64_t*, std::uint64_t> pending;
    std::deque<std::uint64_t*> order;
  };
  sim::PersistConfig cfg_;
  Image live_, frozen_img_;
  bool frozen_ = false;
};

/// Word pool of the differential runs: two runs of consecutive words, one
/// straddling a 4 KiB boundary, one on another page of the same region.
struct Pool {
  static constexpr std::size_t kRegionWords = 2048;  // four 4 KiB pages
  static constexpr std::size_t kRuns[2][2] = {{500, 32}, {1530, 16}};  // {first, len}
  alignas(4096) std::uint64_t region[kRegionWords]{};

  std::vector<std::uint64_t*> words() {
    std::vector<std::uint64_t*> out;
    for (const auto& r : kRuns)
      for (std::size_t i = 0; i < r[1]; ++i) out.push_back(&region[r[0] + i]);
    return out;
  }
};

/// Seeded keep-predicate, identical for the domain and the reference; both
/// also record the order they were asked in (the flush-queue order).
struct Keep {
  std::uint64_t seed;
  std::vector<const std::uint64_t*>* asked;
  bool operator()(const std::uint64_t* a) const {
    asked->push_back(a);
    std::uint64_t x = seed ^ reinterpret_cast<std::uint64_t>(a);
    x *= 0x9e3779b97f4a7c15ull;
    return ((x ^ (x >> 29)) & 1) != 0;
  }
};

void expect_same(PersistDomain& dom, const RefDomain& ref, const StatSheet& st,
                 const std::vector<std::uint64_t*>& pool, std::size_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  for (std::uint64_t* a : pool) ASSERT_EQ(dom.durable(a), ref.durable(a));
  for (const auto& r : Pool::kRuns) {
    std::uint64_t* first = pool[0] - Pool::kRuns[0][0] + r[0];
    std::vector<std::uint64_t> got(r[1]);
    dom.durable_range(first, r[1], got.data());
    for (std::size_t i = 0; i < r[1]; ++i) ASSERT_EQ(got[i], ref.durable(&first[i]));
  }
  auto snap = dom.snapshot_durable();
  std::sort(snap.begin(), snap.end());
  ASSERT_EQ(snap, ref.snapshot());
  ASSERT_EQ(dom.pending_size(), ref.pending_size());
  ASSERT_EQ(dom.frozen(), ref.frozen());
  ASSERT_EQ(dom.pwbs(), ref.pwbs_);
  ASSERT_EQ(dom.pfences(), ref.pfences_);
  ASSERT_EQ(dom.psyncs(), ref.psyncs_);
  ASSERT_EQ(dom.crashes(), ref.crashes_);
  ASSERT_EQ(dom.ticks(), ref.ticks_);
  ASSERT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPwb)], ref.pwbs_);
  ASSERT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPfence)], ref.pfences_);
  ASSERT_EQ(st.persists[static_cast<unsigned>(PersistOp::kPsync)], ref.psyncs_);
  ASSERT_EQ(st.crashes, ref.crashes_);
}

class PersistDomainDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PersistDomainDifferential, MatchesReferenceModelStepByStep) {
  const sim::PersistConfig cfg = fast_cfg(GetParam());
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto pool_mem = std::make_unique<Pool>();
    const std::vector<std::uint64_t*> pool = pool_mem->words();
    PersistDomain dom(cfg);
    RefDomain ref(cfg);
    StatSheet st;
    std::mt19937_64 rng(seed * 0x51ed27u + GetParam());
    auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    // Small values, 0 included: a word persisted as 0 is still present.
    auto value = [&] { return std::uint64_t{below(4)}; };
    // Seed 2 almost never fences, so the flush queue stays full and its
    // evictions and buffer compactions run on every step.
    const std::size_t fence_pct = seed == 2 ? 1 : 15;  // pfence + psync
    for (std::size_t step = 0; step < 3000; ++step) {
      std::size_t op = below(100);
      if (op >= 65 + fence_pct && op < 80) op = 30;  // unused fence slot: a pwb
      if (op < 25) {  // volatile store, not yet written back
        *pool[below(pool.size())] = value();
      } else if (op < 50) {
        std::uint64_t* a = pool[below(pool.size())];
        dom.pwb(a, &st);
        ref.pwb(a);
      } else if (op < 65) {
        const auto& r = Pool::kRuns[below(2)];
        const std::size_t off = below(r[1]);
        const std::size_t n = 1 + below(std::min<std::size_t>(r[1] - off, 12));
        std::uint64_t* a = pool[0] - Pool::kRuns[0][0] + r[0] + off;
        dom.pwb_range(a, n, &st);
        ref.pwb_range(a, n);
      } else if (op < 75) {
        dom.pfence(&st);
        ref.fence(/*sync=*/false);
      } else if (op < 80) {
        dom.psync(&st);
        ref.fence(/*sync=*/true);
      } else if (op < 88) {
        std::uint64_t* a = pool[below(pool.size())];
        const std::uint64_t v = value();
        dom.format(a, v);
        ref.format(a, v);
      } else if (op < 94) {
        dom.freeze(&st);
        ref.freeze();
      } else {
        const std::uint64_t kseed = rng();
        std::vector<const std::uint64_t*> asked_dom, asked_ref;
        dom.crash_keep(Keep{kseed, &asked_dom});
        ref.crash_keep(Keep{kseed, &asked_ref});
        ASSERT_EQ(asked_dom, asked_ref) << "crash saw a different queue order";
      }
      expect_same(dom, ref, st, pool, step);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QueueDepths, PersistDomainDifferential,
                         ::testing::Values(1u, 4u, 64u));

TEST(PersistDomain, PwbRangeEqualsPerWordPwbs) {
  // Pending entries inside the range (one updated in place, one evicted
  // before its word comes up at depth 4) and outside it.
  for (unsigned depth : {1u, 4u, 64u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    auto pool_mem = std::make_unique<Pool>();
    std::uint64_t* r = &pool_mem->region[500];  // straddles a page boundary
    PersistDomain ranged(fast_cfg(depth)), single(fast_cfg(depth));
    StatSheet st_ranged, st_single;
    for (std::size_t i = 0; i < 32; ++i) r[i] = 100 + i;
    for (PersistDomain* d : {&ranged, &single}) {
      d->pwb(&r[14]);
      d->pwb(&pool_mem->region[1530]);
      d->pwb(&r[3]);
    }
    for (std::size_t i = 0; i < 32; ++i) r[i] = 200 + i;
    ranged.pwb_range(r, 20, &st_ranged);
    for (std::size_t i = 0; i < 20; ++i) single.pwb(&r[i], &st_single);

    EXPECT_EQ(ranged.pending_size(), single.pending_size());
    EXPECT_EQ(ranged.pwbs(), single.pwbs());
    EXPECT_EQ(ranged.ticks(), single.ticks());
    EXPECT_EQ(st_ranged.persists[static_cast<unsigned>(PersistOp::kPwb)], 20u);
    EXPECT_EQ(st_single.persists[static_cast<unsigned>(PersistOp::kPwb)], 20u);
    for (std::size_t i = 0; i < 32; ++i)
      EXPECT_EQ(ranged.durable(&r[i]), single.durable(&r[i])) << "word " << i;
    std::vector<const std::uint64_t*> asked_ranged, asked_single;
    ranged.crash_keep(Keep{7, &asked_ranged});
    single.crash_keep(Keep{7, &asked_single});
    EXPECT_EQ(asked_ranged, asked_single) << "queue order differs";
    auto a = ranged.snapshot_durable(), b = single.snapshot_durable();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace phtm::test
