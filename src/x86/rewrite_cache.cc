#include "src/x86/rewrite_cache.h"

#include <algorithm>
#include <cstring>

namespace x86 {

uint64_t HashBytes(std::span<const uint8_t> bytes) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  // Each step is a bijection of its lane for a fixed word and an injection
  // of the word for a fixed lane, so inputs of one length that differ in one
  // word differ in one lane, and still after the fold below.
  const auto step = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  const auto load = [&bytes](size_t i) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    return word;
  };
  // Four independent lanes take 32 bytes a step; the remaining words and the
  // zero-padded tail go to lanes 0, 1, 2, 3 in turn.
  uint64_t lanes[4] = {0xcbf29ce484222325ULL ^ (bytes.size() * kMul), 0x84222325cbf29ce4ULL,
                       0x9ae16a3b2f90404fULL, 0xc3a5c85c97cb3127ULL};
  size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    lanes[0] = step(lanes[0], load(i));
    lanes[1] = step(lanes[1], load(i + 8));
    lanes[2] = step(lanes[2], load(i + 16));
    lanes[3] = step(lanes[3], load(i + 24));
  }
  size_t lane = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    lanes[lane] = step(lanes[lane], load(i));
    ++lane;
  }
  uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  }
  lanes[lane] = step(lanes[lane], tail);
  uint64_t h = step(step(step(lanes[0], lanes[1]), lanes[2]), lanes[3]);
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

uint64_t HashPage(std::span<const uint8_t> image, size_t page_index) {
  const size_t begin = std::min(image.size(), page_index * kPage);
  const size_t end = std::min(image.size(), begin + kPage);
  return HashBytes(image.subspan(begin, end - begin));
}

uint64_t HashCodePage(std::span<const uint8_t> image, size_t page_index, uint64_t page_hash) {
  // The page hash, then the context before and after the page, hashed as one
  // short input whose length pins how much context there was.
  const size_t page_begin = std::min(image.size(), page_index * kPage);
  const size_t page_end = std::min(image.size(), page_begin + kPage);
  const size_t before = std::min(image.size(), ContextBegin(page_index));
  const size_t after = std::min(image.size(), page_end + kContext);
  uint8_t buf[8 + 2 * kContext];
  std::memcpy(buf, &page_hash, 8);
  size_t len = 8;
  std::memcpy(buf + len, image.data() + before, page_begin - before);
  len += page_begin - before;
  std::memcpy(buf + len, image.data() + page_end, after - page_end);
  len += after - page_end;
  return HashBytes({buf, len});
}

uint64_t HashCodePage(std::span<const uint8_t> image, size_t page_index) {
  return HashCodePage(image, page_index, HashPage(image, page_index));
}

RewriteCacheKey PageCacheKey(const ImageScan& scan, size_t page_index, uint32_t pattern_id,
                             uint64_t page_hash) {
  RewriteCacheKey key;
  key.content_hash = HashCodePage(scan.code(), page_index, page_hash);
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
