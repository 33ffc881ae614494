// Differential tests for the hw translation and cache models: thousands of
// seeded random operations run side by side through hw::Tlb / hw::Cache and
// through straightforward reference models (a hash map plus a linked-list
// LRU for the TLB, an array-of-structs scan for the cache). Every step must
// agree on hit or miss, the returned frame and page shift, and the size, so
// the fast layouts are pinned to the plain definition of the same policy.

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/hw/cache.h"
#include "src/hw/tlb.h"

namespace hw {
namespace {

// ---- Reference TLB: fully associative, exact LRU, same probe order ----
class RefTlb {
 public:
  explicit RefTlb(size_t capacity) : capacity_(capacity) {}

  const TlbEntry* Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta, uint8_t* page_shift) {
    for (uint8_t shift : {uint8_t{12}, uint8_t{21}, uint8_t{30}}) {
      TlbKey key{gva >> shift, shift, vpid, pcid, ep4ta};
      auto it = map_.find(key);
      if (it == map_.end() && shift != 12) {
        key.pcid = 0;
        it = map_.find(key);
        if (it != map_.end() && !it->second->entry.global) {
          it = map_.end();
        }
      }
      if (it != map_.end()) {
        return Hit(it->second, shift, page_shift);
      }
    }
    if (pcid != 0) {
      auto it = map_.find(TlbKey{gva >> 12, 12, vpid, 0, ep4ta});
      if (it != map_.end() && it->second->entry.global) {
        return Hit(it->second, 12, page_shift);
      }
    }
    ++misses_;
    return nullptr;
  }

  void Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
              const TlbEntry& entry) {
    const TlbKey key{gva >> page_shift, page_shift, vpid, entry.global ? uint16_t{0} : pcid,
                     ep4ta};
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->entry = entry;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    lru_.push_front(Node{key, entry});
    map_.emplace(key, lru_.begin());
  }

  void FlushAll() {
    map_.clear();
    lru_.clear();
  }
  void FlushPcid(uint16_t vpid, uint16_t pcid) {
    EraseIf([&](const Node& n) {
      return n.key.vpid == vpid && n.key.pcid == pcid && !n.entry.global;
    });
  }
  void FlushVpid(uint16_t vpid) {
    EraseIf([&](const Node& n) { return n.key.vpid == vpid; });
  }

  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Node {
    TlbKey key;
    TlbEntry entry;
  };
  using LruList = std::list<Node>;

  const TlbEntry* Hit(LruList::iterator it, uint8_t shift, uint8_t* page_shift) {
    lru_.splice(lru_.begin(), lru_, it);
    ++hits_;
    *page_shift = shift;
    return &it->entry;
  }

  template <typename Pred>
  void EraseIf(Pred pred) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (pred(*it)) {
        map_.erase(it->key);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  size_t capacity_;
  LruList lru_;
  std::unordered_map<TlbKey, LruList::iterator, TlbKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// ---- Reference cache: array of structs, LRU by access tick ----
class RefCache {
 public:
  explicit RefCache(const CacheConfig& config)
      : config_(config),
        num_sets_(config.size_bytes / config.line_size / config.ways),
        lines_(config.size_bytes / config.line_size) {}

  bool Access(Hpa paddr) {
    Line* base = Set(paddr);
    const uint64_t tag = Tag(paddr);
    ++tick_;
    Line* victim = base;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    *victim = Line{true, tag, tick_};
    return false;
  }

  bool Probe(Hpa paddr) {
    Line* base = Set(paddr);
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == Tag(paddr)) {
        return true;
      }
    }
    return false;
  }

  void Flush() { std::fill(lines_.begin(), lines_.end(), Line{}); }

  void InvalidateRange(Hpa base_addr, uint64_t len) {
    for (Hpa addr = base_addr & ~uint64_t{config_.line_size - 1}; addr < base_addr + len;
         addr += config_.line_size) {
      Line* base = Set(addr);
      for (uint32_t w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == Tag(addr)) {
          base[w] = Line{};
        }
      }
    }
  }

 private:
  struct Line {
    bool valid = false;
    uint64_t tag = 0;
    uint64_t lru = 0;
  };
  Line* Set(Hpa paddr) {
    return &lines_[(paddr / config_.line_size) % num_sets_ * config_.ways];
  }
  uint64_t Tag(Hpa paddr) const { return paddr / config_.line_size / num_sets_; }

  CacheConfig config_;
  uint64_t num_sets_;
  std::vector<Line> lines_;
  uint64_t tick_ = 0;
};

// ---- TLB ----

struct TlbScenario {
  size_t capacity;
  size_t distinct_vas;  // Size of the VA pool: larger pools evict more.
  uint64_t seed;
};

void RunTlbScenario(const TlbScenario& sc, int ops) {
  sb::Rng rng(sc.seed);
  Tlb tlb(sc.capacity);
  RefTlb ref(sc.capacity);
  // VAs cluster in a few 1 GiB regions so 4K, 2M and 1G entries overlap.
  std::vector<Gva> vas(sc.distinct_vas);
  for (Gva& va : vas) {
    va = (rng.Below(4) << 30) | (rng.Below(8) << 21) | (rng.Below(64) << 12);
  }
  const Hpa ep4tas[] = {0, 0x9000, 0xa000};
  const uint8_t shifts[] = {12, 12, 12, 12, 12, 12, 12, 21, 21, 30};
  uint64_t lookups = 0;
  uint64_t hits = 0;
  // The tags in use change now and then, as on a core that switches address
  // spaces (CR3/PCID), VMs (VPID) and EPT views (EP4TA).
  uint16_t vpid = 1;
  uint16_t pcid = 0;
  Hpa ep4ta = 0;
  for (int step = 0; step < ops; ++step) {
    if (rng.OneIn(16)) {
      vpid = static_cast<uint16_t>(1 + rng.Below(2));
      pcid = static_cast<uint16_t>(rng.Below(4));
      ep4ta = ep4tas[rng.Below(3)];
    }
    const Gva va = vas[rng.Below(vas.size())] | rng.Below(sb::kPageSize);
    const uint64_t op = rng.Below(1000);
    if (op < 550) {
      uint8_t shift = 0;
      uint8_t ref_shift = 0;
      const TlbEntry* got = tlb.Lookup(va, vpid, pcid, ep4ta, &shift);
      const TlbEntry* want = ref.Lookup(va, vpid, pcid, ep4ta, &ref_shift);
      ++lookups;
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        ++hits;
        ASSERT_EQ(got->frame, want->frame) << "step " << step;
        ASSERT_EQ(got->global, want->global) << "step " << step;
        ASSERT_EQ(got->writable, want->writable) << "step " << step;
        ASSERT_EQ(shift, ref_shift) << "step " << step;
      }
    } else if (op < 970) {
      const uint8_t shift = shifts[rng.Below(std::size(shifts))];
      TlbEntry entry;
      entry.frame = rng.Below(1 << 20) << shift;
      entry.global = rng.OneIn(5);
      entry.writable = !rng.OneIn(4);
      tlb.Insert(va, shift, vpid, pcid, ep4ta, entry);
      ref.Insert(va, shift, vpid, pcid, ep4ta, entry);
    } else if (op < 990) {
      tlb.FlushPcid(vpid, pcid);
      ref.FlushPcid(vpid, pcid);
    } else if (op < 998) {
      tlb.FlushVpid(vpid);
      ref.FlushVpid(vpid);
    } else {
      tlb.FlushAll();
      ref.FlushAll();
    }
    ASSERT_EQ(tlb.size(), ref.size()) << "step " << step;
  }
  EXPECT_EQ(tlb.hits(), ref.hits());
  EXPECT_EQ(tlb.misses(), ref.misses());
  // The mix must exercise both outcomes, or the comparison proves little.
  EXPECT_GT(hits, lookups / 20);
  EXPECT_LT(hits, lookups);
}

TEST(TlbDifferential, SmallTlbUnderHeavyEviction) {
  RunTlbScenario({16, 256, 1}, 20000);
}

TEST(TlbDifferential, ItlbSizedWorkingSetNearCapacity) {
  RunTlbScenario({128, 160, 2}, 20000);
}

TEST(TlbDifferential, FullSizeDtlbEvictsAtCapacity) {
  RunTlbScenario({1536, 2048, 3}, 60000);
}

TEST(TlbDifferential, ManySeedsSmallCapacity) {
  for (uint64_t seed = 10; seed < 40; ++seed) {
    RunTlbScenario({8, 48, seed}, 3000);
    if (HasFatalFailure()) {
      FAIL() << "seed " << seed;
    }
  }
}

// ---- Cache ----

void RunCacheScenario(const CacheConfig& config, uint64_t lines_in_pool, uint64_t seed, int ops) {
  sb::Rng rng(seed);
  Cache cache(config);
  RefCache ref(config);
  uint64_t hits = 0;
  for (int step = 0; step < ops; ++step) {
    const Hpa addr = rng.Below(lines_in_pool) * config.line_size + rng.Below(config.line_size);
    const uint64_t op = rng.Below(1000);
    if (op < 900) {
      const bool got = cache.Access(addr);
      ASSERT_EQ(got, ref.Access(addr)) << "step " << step;
      hits += got ? 1 : 0;
    } else if (op < 960) {
      ASSERT_EQ(cache.Probe(addr), ref.Probe(addr)) << "step " << step;
    } else if (op < 999) {
      const uint64_t len = rng.Below(8 * config.line_size);
      cache.InvalidateRange(addr, len);
      ref.InvalidateRange(addr, len);
    } else {
      cache.Flush();
      ref.Flush();
    }
  }
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheDifferential, L1dUnderConflictMisses) {
  // 4x the cache's lines: every set sees evictions.
  RunCacheScenario(L1dConfig(), 4 * 512, 1, 50000);
}

TEST(CacheDifferential, L2FourWay) {
  RunCacheScenario(L2Config(), 3 * 4096, 2, 50000);
}

TEST(CacheDifferential, SixteenWaySetsLikeL3) {
  RunCacheScenario(CacheConfig{"l3-slice", 64 * sb::kKiB, 16, 64}, 2048, 3, 50000);
}

TEST(CacheDifferential, TinyCachesManySeeds) {
  for (uint64_t seed = 10; seed < 40; ++seed) {
    RunCacheScenario(CacheConfig{"tiny", 4 * 64, 2, 64}, 12, seed, 2000);
    RunCacheScenario(CacheConfig{"one-set", 8 * 128, 8, 128}, 20, seed, 2000);
    if (HasFatalFailure()) {
      FAIL() << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace hw
