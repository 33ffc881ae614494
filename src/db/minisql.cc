#include "src/db/minisql.h"

#include <cstring>

#include "src/base/logging.h"

namespace minisql {
namespace {

constexpr uint32_t kDbMagic = 0x6d696e69;  // "mini"
constexpr size_t kNameLen = 16;
constexpr size_t kCatalogEntrySize = kNameLen + 4 + 8;  // name, root, rows.
constexpr size_t kCatalogHeader = 8;                    // magic + count.
constexpr size_t kMaxTables = (kDbPageSize - kCatalogHeader) / kCatalogEntrySize;

}  // namespace

Database::Database(fsys::FsClient* fs, uint32_t inum, Config config)
    : fs_(fs), inum_(inum), config_(config) {
  pager_ = std::make_unique<Pager>(fs_, inum_, config_.pager_cache_pages);
}

sb::StatusOr<std::unique_ptr<Database>> Database::Open(fsys::FsClient* fs,
                                                       const std::string& path,
                                                       Config config) {
  auto inum = fs->Open(path);
  bool fresh = false;
  if (!inum.ok()) {
    SB_ASSIGN_OR_RETURN(inum, fs->Create(path));
    fresh = true;
  }
  std::unique_ptr<Database> db(new Database(fs, *inum, config));
  SB_RETURN_IF_ERROR(db->pager_->Open());
  if (fresh) {
    SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page0, db->pager_->GetPage(0));
    std::fill(page0->begin(), page0->end(), 0);
    std::memcpy(page0->data(), &kDbMagic, 4);
    db->pager_->MarkDirty(0);
    SB_RETURN_IF_ERROR(db->pager_->Flush());
  }
  SB_RETURN_IF_ERROR(db->LoadCatalog());
  if (config.use_journal) {
    auto journal = fs->Open(path + "-journal");
    if (!journal.ok()) {
      SB_ASSIGN_OR_RETURN(journal, fs->Create(path + "-journal"));
    }
    db->journal_inum_ = *journal;
  }
  return db;
}

sb::Status Database::JournalBegin() {
  if (!config_.use_journal) {
    return sb::OkStatus();
  }
  // Journal header + before-image stub (SQLite writes the original pages).
  std::vector<uint8_t> blob(256, 0x4a);
  return fs_->Write(journal_inum_, 0, blob);
}

sb::Status Database::JournalEnd() {
  if (!config_.use_journal) {
    return sb::OkStatus();
  }
  // Invalidate the journal header: the commit point.
  std::vector<uint8_t> zero(16, 0);
  return fs_->Write(journal_inum_, 0, zero);
}

sb::Status Database::LoadCatalog() {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page0, pager_->GetPage(0));
  uint32_t magic = 0;
  std::memcpy(&magic, page0->data(), 4);
  if (magic != kDbMagic) {
    return sb::FailedPrecondition("not a minisql database");
  }
  uint32_t count = 0;
  std::memcpy(&count, page0->data() + 4, 4);
  if (count > kMaxTables) {
    return sb::Internal("corrupt catalog");
  }
  catalog_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const size_t off = kCatalogHeader + i * kCatalogEntrySize;
    CatalogEntry entry;
    char name[kNameLen + 1] = {};
    std::memcpy(name, page0->data() + off, kNameLen);
    entry.name = name;
    std::memcpy(&entry.root, page0->data() + off + kNameLen, 4);
    std::memcpy(&entry.rows, page0->data() + off + kNameLen + 4, 8);
    catalog_.push_back(std::move(entry));
  }
  return sb::OkStatus();
}

sb::Status Database::StoreCatalog() {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page0, pager_->GetPage(0));
  std::fill(page0->begin(), page0->end(), 0);
  std::memcpy(page0->data(), &kDbMagic, 4);
  const uint32_t count = static_cast<uint32_t>(catalog_.size());
  std::memcpy(page0->data() + 4, &count, 4);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t off = kCatalogHeader + i * kCatalogEntrySize;
    const CatalogEntry& entry = catalog_[i];
    std::memcpy(page0->data() + off, entry.name.data(),
                std::min(entry.name.size(), kNameLen));
    std::memcpy(page0->data() + off + kNameLen, &entry.root, 4);
    std::memcpy(page0->data() + off + kNameLen + 4, &entry.rows, 8);
  }
  pager_->MarkDirty(0);
  return sb::OkStatus();
}

void Database::ChargeStatement(bool write) {
  if (core_ == nullptr) {
    return;
  }
  core_->AdvanceCycles(config_.statement_cycles);
  if (heap_base_ != 0) {
    // Parser/planner working set plus a slice of the page cache's VA range.
    (void)core_->TouchData(heap_base_, 512, write);
  }
}

bool Database::RowCacheGet(uint64_t key, std::vector<uint8_t>* value) {
  auto it = row_cache_.find(key);
  if (it == row_cache_.end()) {
    return false;
  }
  row_lru_.splice(row_lru_.begin(), row_lru_, it->second.lru_pos);
  *value = it->second.value;
  if (core_ != nullptr && heap_base_ != 0) {
    (void)core_->TouchData(heap_base_ + 4096 + (key % 1024) * 64, 64, false);
  }
  return true;
}

void Database::RowCachePut(uint64_t key, std::vector<uint8_t> value) {
  // Evicts before inserting, even when `key` is already cached: a full cache
  // loses its LRU row on every put.
  if (row_cache_.size() >= config_.row_cache_entries && !row_lru_.empty()) {
    row_cache_.erase(row_lru_.back());
    row_lru_.pop_back();
  }
  auto [it, inserted] = row_cache_.try_emplace(key);
  it->second.value = std::move(value);
  if (inserted) {
    row_lru_.push_front(key);
    it->second.lru_pos = row_lru_.begin();
  } else {
    row_lru_.splice(row_lru_.begin(), row_lru_, it->second.lru_pos);
  }
}

void Database::RowCacheErase(uint64_t key) {
  auto it = row_cache_.find(key);
  if (it != row_cache_.end()) {
    row_lru_.erase(it->second.lru_pos);
    row_cache_.erase(it);
  }
}

sb::StatusOr<Table*> Database::CreateTable(const std::string& name) {
  if (name.empty() || name.size() > kNameLen) {
    return sb::InvalidArgument("bad table name");
  }
  for (const CatalogEntry& entry : catalog_) {
    if (entry.name == name) {
      return sb::AlreadyExists("table exists");
    }
  }
  if (catalog_.size() >= kMaxTables) {
    return sb::ResourceExhausted("catalog full");
  }
  SB_ASSIGN_OR_RETURN(const uint32_t root, pager_->AllocatePage());
  SB_RETURN_IF_ERROR(BTree::InitLeaf(*pager_, root));
  catalog_.push_back(CatalogEntry{name, root, 0});
  SB_RETURN_IF_ERROR(StoreCatalog());
  SB_RETURN_IF_ERROR(pager_->Flush());
  auto table = std::unique_ptr<Table>(new Table(this, catalog_.size() - 1, root));
  table->btree_ = BTree(pager_.get(), root);
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

sb::StatusOr<Table*> Database::OpenTable(const std::string& name) {
  for (size_t i = 0; i < catalog_.size(); ++i) {
    if (catalog_[i].name == name) {
      auto table = std::unique_ptr<Table>(new Table(this, i, catalog_[i].root));
      table->btree_ = BTree(pager_.get(), catalog_[i].root);
      tables_.push_back(std::move(table));
      return tables_.back().get();
    }
  }
  return sb::NotFound("no such table");
}

sb::Status Table::Insert(uint64_t key, std::span<const uint8_t> value) {
  db_->ChargeStatement(true);
  SB_RETURN_IF_ERROR(db_->JournalBegin());
  SB_RETURN_IF_ERROR(btree_.Insert(key, value));
  db_->catalog_[catalog_index_].rows++;
  SB_RETURN_IF_ERROR(db_->StoreCatalog());
  SB_RETURN_IF_ERROR(db_->pager_->Flush());  // Commit (SQLite-style sync).
  SB_RETURN_IF_ERROR(db_->JournalEnd());
  db_->RowCachePut(key, std::vector<uint8_t>(value.begin(), value.end()));
  db_->stats_.inserts++;
  return sb::OkStatus();
}

sb::Status Table::Update(uint64_t key, std::span<const uint8_t> value) {
  db_->ChargeStatement(true);
  SB_RETURN_IF_ERROR(db_->JournalBegin());
  SB_RETURN_IF_ERROR(btree_.Update(key, value));
  SB_RETURN_IF_ERROR(db_->pager_->Flush());
  SB_RETURN_IF_ERROR(db_->JournalEnd());
  db_->RowCachePut(key, std::vector<uint8_t>(value.begin(), value.end()));
  db_->stats_.updates++;
  return sb::OkStatus();
}

sb::StatusOr<std::vector<uint8_t>> Table::Query(uint64_t key) {
  db_->ChargeStatement(false);
  db_->stats_.queries++;
  std::vector<uint8_t> cached;
  if (db_->RowCacheGet(key, &cached)) {
    db_->stats_.row_cache_hits++;
    return cached;
  }
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t> value, btree_.Get(key));
  db_->RowCachePut(key, value);
  return value;
}

sb::StatusOr<std::vector<BTree::Row>> Table::Scan(uint64_t lo, uint64_t hi) {
  db_->ChargeStatement(false);
  db_->stats_.queries++;
  return btree_.Scan(lo, hi);
}

sb::Status Table::Delete(uint64_t key) {
  db_->ChargeStatement(true);
  SB_RETURN_IF_ERROR(db_->JournalBegin());
  SB_RETURN_IF_ERROR(btree_.Delete(key));
  db_->catalog_[catalog_index_].rows--;
  SB_RETURN_IF_ERROR(db_->StoreCatalog());
  SB_RETURN_IF_ERROR(db_->pager_->Flush());
  SB_RETURN_IF_ERROR(db_->JournalEnd());
  db_->RowCacheErase(key);
  db_->stats_.deletes++;
  return sb::OkStatus();
}

sb::StatusOr<uint64_t> Table::RowCount() { return db_->catalog_[catalog_index_].rows; }

}  // namespace minisql
