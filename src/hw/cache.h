// Set-associative cache model with LRU replacement.
//
// The hierarchy mirrors the paper's Skylake testbed: per-core L1i/L1d and L2,
// one shared L3. Accesses are tracked per 64-byte line; the model answers
// hit/miss and the cycle cost, and feeds the PMU counters used by Table 1.

#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/addr.h"

namespace hw {

struct CacheConfig {
  std::string name;
  uint64_t size_bytes = 0;
  uint32_t ways = 8;
  uint32_t line_size = 64;
};

// Skylake-class defaults.
CacheConfig L1iConfig();
CacheConfig L1dConfig();
CacheConfig L2Config();
CacheConfig L3Config();

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Returns true on hit. On miss the line is filled (evicting LRU).
  bool Access(Hpa paddr);

  // True if the line is currently resident (no state change).
  bool Probe(Hpa paddr) const;

  void Flush();

  // Invalidate every line in [base, base+len) (e.g. on frame reuse).
  void InvalidateRange(Hpa base, uint64_t len);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return config_; }

 private:
  // Struct-of-arrays line state, num_sets_ * ways entries, row-major by set.
  // tags_ holds tag + 1, so 0 marks an invalid way; lru_ holds the access tick
  // of the way's last use (higher = more recent) and is 0 exactly when the way
  // is invalid. Ticks are unique, so the oldest valid way is unambiguous.
  uint64_t LineNumber(Hpa paddr) const { return paddr >> line_shift_; }
  uint64_t SetIndex(uint64_t line) const { return line & set_mask_; }
  uint64_t TagPlusOne(uint64_t line) const { return (line >> set_shift_) + 1; }

  CacheConfig config_;
  uint32_t line_shift_;
  uint32_t set_shift_;
  uint64_t set_mask_;
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> lru_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
