#include "src/hw/cache.h"

#include <algorithm>
#include <bit>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {

CacheConfig L1iConfig() { return CacheConfig{"L1i", 32 * sb::kKiB, 8, 64}; }
CacheConfig L1dConfig() { return CacheConfig{"L1d", 32 * sb::kKiB, 8, 64}; }
CacheConfig L2Config() { return CacheConfig{"L2", 256 * sb::kKiB, 4, 64}; }
CacheConfig L3Config() { return CacheConfig{"L3", 8 * sb::kMiB, 16, 64}; }

Cache::Cache(const CacheConfig& config) : config_(config) {
  SB_CHECK(std::has_single_bit(config_.line_size)) << "line size must be a power of two";
  const uint64_t num_lines = config_.size_bytes / config_.line_size;
  SB_CHECK(num_lines % config_.ways == 0);
  const uint64_t num_sets = num_lines / config_.ways;
  SB_CHECK(std::has_single_bit(num_sets)) << "set count must be a power of two";
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config_.line_size));
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets));
  set_mask_ = num_sets - 1;
  tags_.assign(num_lines, 0);
  lru_.assign(num_lines, 0);
}

bool Cache::Access(Hpa paddr) {
  const uint64_t line = LineNumber(paddr);
  const uint64_t tag = TagPlusOne(line);
  const size_t base = SetIndex(line) * config_.ways;
  uint64_t* tags = &tags_[base];
  uint64_t* lru = &lru_[base];
  ++tick_;

  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (tags[w] == tag) {
      lru[w] = tick_;
      ++hits_;
      return true;
    }
  }

  // Victim: the last invalid way if there is one (lru 0), else the way used
  // least recently.
  uint32_t victim = 0;
  uint64_t oldest = lru[0];
  for (uint32_t w = 1; w < config_.ways; ++w) {
    const bool older = lru[w] <= oldest;  // Selects, not branches: misses are unpredictable.
    victim = older ? w : victim;
    oldest = older ? lru[w] : oldest;
  }
  ++misses_;
  tags[victim] = tag;
  lru[victim] = tick_;
  return false;
}

bool Cache::Probe(Hpa paddr) const {
  const uint64_t line = LineNumber(paddr);
  const uint64_t tag = TagPlusOne(line);
  const uint64_t* tags = &tags_[SetIndex(line) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (tags[w] == tag) {
      return true;
    }
  }
  return false;
}

void Cache::Flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
}

void Cache::InvalidateRange(Hpa base_addr, uint64_t len) {
  for (Hpa addr = base_addr & ~uint64_t{config_.line_size - 1}; addr < base_addr + len;
       addr += config_.line_size) {
    const uint64_t line = LineNumber(addr);
    const uint64_t tag = TagPlusOne(line);
    const size_t base = SetIndex(line) * config_.ways;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (tags_[base + w] == tag) {
        tags_[base + w] = 0;
        lru_[base + w] = 0;
      }
    }
  }
}

}  // namespace hw
