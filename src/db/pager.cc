#include "src/db/pager.h"

#include "src/base/logging.h"

namespace minisql {

Pager::Pager(fsys::FsClient* fs, uint32_t inum, size_t cache_pages)
    : fs_(fs), inum_(inum), cache_capacity_(cache_pages) {}

sb::Status Pager::Open() {
  SB_ASSIGN_OR_RETURN(const uint32_t size, fs_->Size(inum_));
  if (size % kDbPageSize != 0) {
    return sb::FailedPrecondition("database file size not page aligned");
  }
  num_pages_ = size / kDbPageSize;
  if (num_pages_ == 0) {
    SB_RETURN_IF_ERROR(AllocatePage().status());
    SB_RETURN_IF_ERROR(Flush());
  }
  return sb::OkStatus();
}

sb::Status Pager::EvictIfNeeded() {
  while (cache_.size() >= cache_capacity_) {
    // Evict the least recently used clean page; flush a dirty one if needed.
    uint32_t victim = lru_.back();
    auto it = cache_.find(victim);
    SB_CHECK(it != cache_.end());
    if (it->second.dirty) {
      SB_RETURN_IF_ERROR(
          fs_->Write(inum_, victim * kDbPageSize, it->second.data));
    }
    cache_.erase(it);
    lru_.pop_back();
  }
  return sb::OkStatus();
}

sb::StatusOr<std::vector<uint8_t>*> Pager::GetPage(uint32_t pgno) {
  if (pgno >= num_pages_) {
    return sb::OutOfRange("page beyond end of database");
  }
  auto it = cache_.find(pgno);
  if (it != cache_.end()) {
    ++cache_hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second.data;
  }
  ++page_faults_;
  SB_RETURN_IF_ERROR(EvictIfNeeded());
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t> data, fs_->Read(inum_, pgno * kDbPageSize, kDbPageSize));
  if (data.size() != kDbPageSize) {
    data.resize(kDbPageSize, 0);
  }
  lru_.push_front(pgno);
  auto [pos, inserted] = cache_.emplace(pgno, Entry{std::move(data), false, lru_.begin()});
  SB_CHECK(inserted);
  return &pos->second.data;
}

void Pager::MarkDirty(uint32_t pgno) {
  auto it = cache_.find(pgno);
  SB_CHECK(it != cache_.end()) << "MarkDirty on uncached page";
  it->second.dirty = true;
}

sb::StatusOr<uint32_t> Pager::AllocatePage() {
  SB_RETURN_IF_ERROR(EvictIfNeeded());
  const uint32_t pgno = num_pages_++;
  lru_.push_front(pgno);
  auto [pos, inserted] =
      cache_.emplace(pgno, Entry{std::vector<uint8_t>(kDbPageSize, 0), true, lru_.begin()});
  SB_CHECK(inserted);
  return pgno;
}

sb::Status Pager::Flush() {
  ++flushes_;
  for (auto& [pgno, entry] : cache_) {
    if (entry.dirty) {
      SB_RETURN_IF_ERROR(fs_->Write(inum_, pgno * kDbPageSize, entry.data));
      entry.dirty = false;
    }
  }
  return sb::OkStatus();
}

}  // namespace minisql
