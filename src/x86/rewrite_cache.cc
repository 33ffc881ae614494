#include "src/x86/rewrite_cache.h"

#include <algorithm>
#include <cstring>

namespace x86 {

uint64_t HashBytes(std::span<const uint8_t> bytes) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  // Eight bytes per step; each step is a bijection of the state, so inputs
  // of one length that differ in one word always hash apart.
  uint64_t h = 0xcbf29ce484222325ULL ^ (bytes.size() * kMul);
  const auto step = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  };
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    step(word);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  }
  step(tail);
  // splitmix64 finalizer.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

namespace {

constexpr size_t kPage = 4096;
constexpr size_t kContext = 64;

size_t ContextBegin(size_t page_index) {
  const size_t page_begin = page_index * kPage;
  return page_begin >= kContext ? page_begin - kContext : 0;
}

}  // namespace

uint64_t HashCodePage(std::span<const uint8_t> image, size_t page_index) {
  const size_t page_begin = page_index * kPage;
  if (page_begin >= image.size()) {
    return HashBytes({});
  }
  const size_t begin = ContextBegin(page_index);
  const size_t end = std::min(image.size(), page_begin + kPage + kContext);
  return HashBytes(image.subspan(begin, end - begin));
}

RewriteCacheKey PageCacheKey(const ImageScan& scan, size_t page_index, uint32_t pattern_id) {
  RewriteCacheKey key;
  key.content_hash = HashCodePage(scan.code(), page_index);
  key.page_index = static_cast<uint32_t>(page_index);
  key.pattern_id = pattern_id;
  const size_t context_begin = std::min(ContextBegin(page_index), scan.code().size());
  key.sweep_entry = static_cast<uint32_t>(scan.NextStart(context_begin) - context_begin);
  return key;
}

std::optional<PageRewrite> RewriteCache::Lookup(const RewriteCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void RewriteCache::Insert(const RewriteCacheKey& key, PageRewrite value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (max_entries_ > 0 && lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void RewriteCache::Invalidate(const RewriteCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
}

size_t RewriteCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

RewriteCacheStats RewriteCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace x86
