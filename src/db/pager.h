// Pager: fixed-size database pages cached over an FsClient file.
//
// This is minisql's equivalent of SQLite's pager: an LRU page cache in the
// database process (the "internal cache to handle the recent read requests"
// that makes the paper's query workload cheap), dirty-page tracking and a
// flush that turns one database operation into a burst of FS write RPCs.

#ifndef SRC_DB_PAGER_H_
#define SRC_DB_PAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/fs/fs_rpc.h"

namespace minisql {

inline constexpr uint32_t kDbPageSize = 1024;

class Pager {
 public:
  // `inum` identifies an open (possibly empty) file on the FS server.
  Pager(fsys::FsClient* fs, uint32_t inum, size_t cache_pages = 64);

  // Loads page 0 / discovers the page count. On an empty file, initializes a
  // fresh single-page database file.
  sb::Status Open();

  uint32_t num_pages() const { return num_pages_; }

  // Returns the page contents; pins nothing (pointers are invalidated by the
  // next pager call — copy or finish using before calling again).
  sb::StatusOr<std::vector<uint8_t>*> GetPage(uint32_t pgno);
  // Marks a page dirty after mutation.
  void MarkDirty(uint32_t pgno);
  // Appends a zeroed page to the file.
  sb::StatusOr<uint32_t> AllocatePage();
  // Writes every dirty page back through the FS (one RPC per page).
  sb::Status Flush();

  uint64_t page_faults() const { return page_faults_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t flushes() const { return flushes_; }

 private:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_pos;  // This page's node in lru_.
  };

  sb::Status EvictIfNeeded();

  fsys::FsClient* fs_;
  uint32_t inum_;
  size_t cache_capacity_;
  uint32_t num_pages_ = 0;
  std::unordered_map<uint32_t, Entry> cache_;
  std::list<uint32_t> lru_;  // Front = most recent.
  uint64_t page_faults_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace minisql

#endif  // SRC_DB_PAGER_H_
