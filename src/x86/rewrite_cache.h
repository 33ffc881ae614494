// Content-hashed rewrite cache (staged registration, DESIGN.md section 17).
//
// Forked / templated processes share byte-identical code pages, so the
// expensive per-page scan + rewrite (RewriteVmfuncPage) only needs to run
// once per distinct page content. The cache key is
//
//   (content hash of the page plus 64 B of boundary context on each side,
//    page index, backend pattern id, sweep entry)
//
// The boundary context is part of the key because a rewrite window that
// straddles a page edge patches a few bytes of the neighbouring page; the
// context bytes pin the instruction stream the recorded patches assumed.
// The sweep entry — where the linear sweep of the whole image enters that
// context — is part of it because the same bytes decode into different
// instructions from a different entry: a page whose hits are classified
// from one entry must never replay onto an image entered at another. The
// page index is part of the key because emitted snippets encode absolute
// jump displacements derived from the page's position in the image. The
// pattern id keeps backends apart: an MPK (WRPKRU) rewrite must never
// satisfy an EPTP (VMFUNC) lookup for the same bytes.
//
// Entries are LRU-evicted under a bounded budget. All methods are
// thread-safe; Lookup returns the entry by value so callers never hold
// references across an eviction.

#ifndef SRC_X86_REWRITE_CACHE_H_
#define SRC_X86_REWRITE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/x86/rewriter.h"

namespace x86 {

// A 64-bit hash, four word-wide lanes at a time with the length folded in.
// Its values are internal keys (`content_hash`, `pristine_hash`), never
// printed or stored.
uint64_t HashBytes(std::span<const uint8_t> bytes);

// Hash of code page `page_index`'s own bytes (clamped to the image). A spawn
// hashes each page of its image once; the page keys and the image's hash
// are derived from these, and a patch costs a rehash of the pages it wrote.
uint64_t HashPage(std::span<const uint8_t> image, size_t page_index);

// Hash of code page `page_index` of `image` plus up to 64 bytes of context
// on each side (clamped to the image), given the page's HashPage. This is
// the `content_hash` half of the cache key; identical pages in identical
// neighbourhoods collide by construction. The two-argument form hashes the
// page itself.
uint64_t HashCodePage(std::span<const uint8_t> image, size_t page_index, uint64_t page_hash);
uint64_t HashCodePage(std::span<const uint8_t> image, size_t page_index);

struct RewriteCacheKey {
  uint64_t content_hash = 0;
  uint32_t page_index = 0;
  uint32_t pattern_id = 0;  // 0 = VMFUNC (EPTP backend), 1 = WRPKRU (MPK).
  // The first instruction start at or after the hashed context's first
  // byte, relative to it (0..14: an instruction is at most 15 bytes).
  uint32_t sweep_entry = 0;

  bool operator==(const RewriteCacheKey& rhs) const = default;
};

// The cache key of page `page_index` of the scanned image, given the HashPage
// of that page's current bytes, read off the scan's current instruction
// starts (no sweep of its own).
RewriteCacheKey PageCacheKey(const ImageScan& scan, size_t page_index, uint32_t pattern_id,
                             uint64_t page_hash);

// Hits and misses are counted on the registry (skybridge.registration.*).
struct RewriteCacheStats {
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
};

class RewriteCache {
 public:
  explicit RewriteCache(size_t max_entries = 4096) : max_entries_(max_entries) {}

  RewriteCache(const RewriteCache&) = delete;
  RewriteCache& operator=(const RewriteCache&) = delete;

  // A hit refreshes the entry's LRU position.
  std::optional<PageRewrite> Lookup(const RewriteCacheKey& key);

  // Inserts or replaces; evicts the least-recently-used entry over budget.
  void Insert(const RewriteCacheKey& key, PageRewrite value);

  // Drops the entry if present (UpdateProcessCode dirty-page invalidation).
  void Invalidate(const RewriteCacheKey& key);

  size_t size() const;
  size_t max_entries() const { return max_entries_; }
  RewriteCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const RewriteCacheKey& key) const {
      uint64_t h = key.content_hash;
      h ^= (static_cast<uint64_t>(key.page_index) << 32) | key.pattern_id;
      h *= 0x9e3779b97f4a7c15ULL;
      h ^= key.sweep_entry;
      h *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  using Entry = std::pair<RewriteCacheKey, PageRewrite>;

  const size_t max_entries_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<RewriteCacheKey, std::list<Entry>::iterator, KeyHash> index_;
  RewriteCacheStats stats_;
};

}  // namespace x86

#endif  // SRC_X86_REWRITE_CACHE_H_
