// minisql tests: pager, B+tree (including property sweeps), database
// catalog, journal, and row-cache behaviour.

#include "src/db/minisql.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/db/btree.h"
#include "src/fs/block_device.h"

namespace minisql {
namespace {

// FS stack with a direct (kernel-free) transport for unit testing.
struct DirectFs {
  DirectFs() : disk(32768), fs(MakeTransport(), fsys::Xv6Fs::Config{32768, 512, fsys::kLogCapacity + 1, 64}), client(MakeFsTransport()) {
    SB_CHECK(fs.Mkfs().ok());
    SB_CHECK(fs.Mount().ok());
  }

  fsys::BlockTransport MakeTransport() {
    return [this](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
      uint32_t block = 0;
      std::memcpy(&block, msg.data.data(), 4);
      if (msg.tag == fsys::kBlockRead) {
        mk::Message reply(1);
        reply.data.resize(fsys::kBlockSize);
        SB_RETURN_IF_ERROR(disk.Read(nullptr, block, reply.data));
        return reply;
      }
      SB_RETURN_IF_ERROR(disk.Write(
          nullptr, block, std::span<const uint8_t>(msg.data.data() + 4, fsys::kBlockSize)));
      return mk::Message(1);
    };
  }

  fsys::FsClient::Transport MakeFsTransport() {
    return [this](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
      // Run the FS operation directly (no kernel context needed for tests).
      switch (static_cast<fsys::FsOp>(msg.tag)) {
        case fsys::FsOp::kOpen: {
          auto inum = fs.Lookup(std::string(msg.data.begin(), msg.data.end()));
          return inum.ok() ? mk::Message(*inum) : mk::Message(fsys::kFsError);
        }
        case fsys::FsOp::kCreate: {
          auto inum = fs.Create(std::string(msg.data.begin(), msg.data.end()));
          return inum.ok() ? mk::Message(*inum) : mk::Message(fsys::kFsError);
        }
        case fsys::FsOp::kRead: {
          uint32_t inum = 0;
          uint32_t off = 0;
          uint32_t len = 0;
          std::memcpy(&inum, msg.data.data(), 4);
          std::memcpy(&off, msg.data.data() + 4, 4);
          std::memcpy(&len, msg.data.data() + 8, 4);
          std::vector<uint8_t> out(len);
          auto n = fs.ReadFile(inum, off, out);
          if (!n.ok()) {
            return mk::Message(fsys::kFsError);
          }
          out.resize(*n);
          mk::Message reply(*n);
          reply.data = std::move(out);
          return reply;
        }
        case fsys::FsOp::kWrite: {
          uint32_t inum = 0;
          uint32_t off = 0;
          std::memcpy(&inum, msg.data.data(), 4);
          std::memcpy(&off, msg.data.data() + 4, 4);
          const std::span<const uint8_t> payload(msg.data.data() + 8, msg.data.size() - 8);
          return fs.WriteFile(inum, off, payload).ok() ? mk::Message(1)
                                                       : mk::Message(fsys::kFsError);
        }
        case fsys::FsOp::kSize: {
          uint32_t inum = 0;
          std::memcpy(&inum, msg.data.data(), 4);
          auto size = fs.FileSize(inum);
          return size.ok() ? mk::Message(*size) : mk::Message(fsys::kFsError);
        }
        case fsys::FsOp::kUnlink: {
          return fs.Unlink(std::string(msg.data.begin(), msg.data.end())).ok()
                     ? mk::Message(1)
                     : mk::Message(fsys::kFsError);
        }
      }
      return mk::Message(fsys::kFsError);
    };
  }

  fsys::RamDisk disk;
  fsys::Xv6Fs fs;
  fsys::FsClient client;
};

std::vector<uint8_t> Value(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Pager, AllocateGrowsFile) {
  DirectFs env;
  auto inum = env.client.Create("/pg.db");
  ASSERT_TRUE(inum.ok());
  Pager pager(&env.client, *inum, 8);
  ASSERT_TRUE(pager.Open().ok());
  EXPECT_EQ(pager.num_pages(), 1u);
  auto p1 = pager.AllocatePage();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(*env.client.Size(*inum), 2 * kDbPageSize);
}

TEST(Pager, PersistsAcrossReopen) {
  DirectFs env;
  auto inum = env.client.Create("/pg.db");
  ASSERT_TRUE(inum.ok());
  {
    Pager pager(&env.client, *inum, 8);
    ASSERT_TRUE(pager.Open().ok());
    auto page = pager.GetPage(0);
    ASSERT_TRUE(page.ok());
    (**page)[0] = 0xaa;
    pager.MarkDirty(0);
    ASSERT_TRUE(pager.Flush().ok());
  }
  Pager pager2(&env.client, *inum, 8);
  ASSERT_TRUE(pager2.Open().ok());
  auto page = pager2.GetPage(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((**page)[0], 0xaa);
}

TEST(Pager, CacheHitAvoidsRpc) {
  DirectFs env;
  auto inum = env.client.Create("/pg.db");
  ASSERT_TRUE(inum.ok());
  Pager pager(&env.client, *inum, 8);
  ASSERT_TRUE(pager.Open().ok());
  ASSERT_TRUE(pager.GetPage(0).ok());
  const uint64_t rpcs = env.client.rpcs();
  ASSERT_TRUE(pager.GetPage(0).ok());
  EXPECT_EQ(env.client.rpcs(), rpcs);
  EXPECT_GT(pager.cache_hits(), 0u);
}

TEST(Pager, EvictionWritesDirtyPages) {
  DirectFs env;
  auto inum = env.client.Create("/pg.db");
  ASSERT_TRUE(inum.ok());
  Pager pager(&env.client, *inum, 4);
  ASSERT_TRUE(pager.Open().ok());
  for (int i = 0; i < 8; ++i) {
    auto pgno = pager.AllocatePage();
    ASSERT_TRUE(pgno.ok());
    auto page = pager.GetPage(*pgno);
    ASSERT_TRUE(page.ok());
    (**page)[0] = static_cast<uint8_t>(*pgno);
    pager.MarkDirty(*pgno);
  }
  ASSERT_TRUE(pager.Flush().ok());
  // Re-read everything through a fresh pager.
  Pager pager2(&env.client, *inum, 16);
  ASSERT_TRUE(pager2.Open().ok());
  for (uint32_t i = 1; i <= 8; ++i) {
    auto page = pager2.GetPage(i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((**page)[0], static_cast<uint8_t>(i));
  }
}

// The victim is the least recently *used* page, not the oldest loaded one,
// and a dirty victim is written back before its slot is reused.
TEST(Pager, EvictsLeastRecentlyUsedPageAndWritesBackIfDirty) {
  DirectFs env;
  auto inum = env.client.Create("/lru.db");
  ASSERT_TRUE(inum.ok());
  {
    Pager writer(&env.client, *inum, 16);
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer.AllocatePage().ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
  }
  Pager pager(&env.client, *inum, 3);
  ASSERT_TRUE(pager.Open().ok());
  ASSERT_EQ(pager.num_pages(), 5u);
  for (uint32_t pgno : {1u, 2u, 3u}) {
    ASSERT_TRUE(pager.GetPage(pgno).ok());
  }
  auto page2 = pager.GetPage(2);
  ASSERT_TRUE(page2.ok());
  (**page2)[0] = 0x5a;
  pager.MarkDirty(2);
  ASSERT_TRUE(pager.GetPage(3).ok());
  ASSERT_TRUE(pager.GetPage(1).ok());  // LRU order now 1, 3, 2: page 2 is the victim.

  const uint64_t rpcs = env.client.rpcs();
  const uint64_t faults = pager.page_faults();
  ASSERT_TRUE(pager.GetPage(4).ok());
  EXPECT_EQ(env.client.rpcs(), rpcs + 2);  // Write-back of page 2, then the read of 4.
  EXPECT_EQ(pager.page_faults(), faults + 1);
  auto on_disk = env.client.Read(*inum, 2 * kDbPageSize, kDbPageSize);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ((*on_disk)[0], 0x5a);

  // Pages 1 and 3 survived; page 2 must be fetched again.
  const uint64_t rpcs_after = env.client.rpcs();
  ASSERT_TRUE(pager.GetPage(1).ok());
  ASSERT_TRUE(pager.GetPage(3).ok());
  EXPECT_EQ(env.client.rpcs(), rpcs_after);
  ASSERT_TRUE(pager.GetPage(2).ok());
  EXPECT_EQ(pager.page_faults(), faults + 2);
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    inum_ = *env_.client.Create("/bt.db");
    pager_ = std::make_unique<Pager>(&env_.client, inum_, 32);
    SB_CHECK(pager_->Open().ok());
    root_ = *pager_->AllocatePage();
    SB_CHECK(BTree::InitLeaf(*pager_, root_).ok());
    tree_ = std::make_unique<BTree>(pager_.get(), root_);
  }

  DirectFs env_;
  uint32_t inum_ = 0;
  uint32_t root_ = 0;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertAndGet) {
  ASSERT_TRUE(tree_->Insert(5, Value("five")).ok());
  ASSERT_TRUE(tree_->Insert(3, Value("three")).ok());
  ASSERT_TRUE(tree_->Insert(9, Value("nine")).ok());
  auto v = tree_->Get(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::string(v->begin(), v->end()), "three");
  EXPECT_FALSE(tree_->Get(4).ok());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(1, Value("a")).ok());
  EXPECT_EQ(tree_->Insert(1, Value("b")).code(), sb::ErrorCode::kAlreadyExists);
}

TEST_F(BTreeTest, UpdateChangesValue) {
  ASSERT_TRUE(tree_->Insert(1, Value("old")).ok());
  ASSERT_TRUE(tree_->Update(1, Value("new")).ok());
  auto v = tree_->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::string(v->begin(), v->end()), "new");
  EXPECT_FALSE(tree_->Update(2, Value("x")).ok());
}

TEST_F(BTreeTest, DeleteRemoves) {
  ASSERT_TRUE(tree_->Insert(1, Value("a")).ok());
  ASSERT_TRUE(tree_->Insert(2, Value("b")).ok());
  ASSERT_TRUE(tree_->Delete(1).ok());
  EXPECT_FALSE(tree_->Get(1).ok());
  EXPECT_TRUE(tree_->Get(2).ok());
  EXPECT_FALSE(tree_->Delete(1).ok());
}

TEST_F(BTreeTest, SplitsOnManySequentialInserts) {
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Value("v" + std::to_string(k))).ok()) << k;
  }
  ASSERT_TRUE(tree_->Validate().ok());
  for (uint64_t k = 0; k < 500; ++k) {
    auto v = tree_->Get(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(std::string(v->begin(), v->end()), "v" + std::to_string(k));
  }
  auto keys = tree_->Keys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 500u);
  EXPECT_TRUE(std::is_sorted(keys->begin(), keys->end()));
}

class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, RandomOpsMatchReferenceMap) {
  DirectFs env;
  const uint32_t inum = *env.client.Create("/prop.db");
  Pager pager(&env.client, inum, 32);
  ASSERT_TRUE(pager.Open().ok());
  const uint32_t root = *pager.AllocatePage();
  ASSERT_TRUE(BTree::InitLeaf(pager, root).ok());
  BTree tree(&pager, root);

  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  std::map<uint64_t, std::string> reference;
  for (int i = 0; i < 400; ++i) {
    const uint64_t key = rng.Below(200);
    const std::string value = "v" + std::to_string(rng.Below(1000));
    switch (rng.Below(4)) {
      case 0:
      case 1: {  // Insert
        const bool existed = reference.contains(key);
        const sb::Status status = tree.Insert(key, Value(value));
        EXPECT_EQ(status.ok(), !existed);
        if (!existed) {
          reference[key] = value;
        }
        break;
      }
      case 2: {  // Update
        const bool existed = reference.contains(key);
        const sb::Status status = tree.Update(key, Value(value));
        EXPECT_EQ(status.ok(), existed);
        if (existed) {
          reference[key] = value;
        }
        break;
      }
      case 3: {  // Delete
        const bool existed = reference.contains(key);
        EXPECT_EQ(tree.Delete(key).ok(), existed);
        reference.erase(key);
        break;
      }
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  for (const auto& [key, value] : reference) {
    auto v = tree.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(std::string(v->begin(), v->end()), value);
  }
  auto keys = tree.Keys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest, ::testing::Range(0, 12));

TEST_F(BTreeTest, RangeScan) {
  for (uint64_t k = 0; k < 200; k += 2) {  // Even keys only.
    ASSERT_TRUE(tree_->Insert(k, Value("v" + std::to_string(k))).ok());
  }
  auto rows = tree_->Scan(51, 99);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 24u);  // 52, 54, ..., 98.
  EXPECT_EQ((*rows)[0].key, 52u);
  EXPECT_EQ(rows->back().key, 98u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LT((*rows)[i - 1].key, (*rows)[i].key);
  }
  EXPECT_EQ(std::string((*rows)[0].value.begin(), (*rows)[0].value.end()), "v52");

  // Degenerate ranges.
  EXPECT_TRUE(tree_->Scan(1000, 2000)->empty());
  EXPECT_TRUE(tree_->Scan(10, 5)->empty());
  EXPECT_EQ(tree_->Scan(0, UINT64_MAX)->size(), 100u);
}

TEST(Database, TableScan) {
  DirectFs env;
  auto db = Database::Open(&env.client, "/scan.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("t");
  ASSERT_TRUE(table.ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE((*table)->Insert(k, Value(std::to_string(k))).ok());
  }
  auto rows = (*table)->Scan(10, 19);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_EQ((*rows)[0].key, 10u);
}

TEST(Database, CreateInsertQuery) {
  DirectFs env;
  auto db = Database::Open(&env.client, "/app.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("users");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(1, Value("alice")).ok());
  ASSERT_TRUE((*table)->Insert(2, Value("bob")).ok());
  auto v = (*table)->Query(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::string(v->begin(), v->end()), "alice");
  EXPECT_EQ(*(*table)->RowCount(), 2u);
}

TEST(Database, PersistsAcrossReopen) {
  DirectFs env;
  {
    auto db = Database::Open(&env.client, "/p.db");
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Insert(7, Value("persisted")).ok());
  }
  auto db = Database::Open(&env.client, "/p.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto v = (*table)->Query(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::string(v->begin(), v->end()), "persisted");
}

TEST(Database, QueryUsesRowCache) {
  DirectFs env;
  auto db = Database::Open(&env.client, "/c.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(1, Value("x")).ok());
  ASSERT_TRUE((*table)->Query(1).ok());
  const uint64_t rpcs = env.client.rpcs();
  // Repeat queries are served from the row cache: zero FS traffic.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*table)->Query(1).ok());
  }
  EXPECT_EQ(env.client.rpcs(), rpcs);
  EXPECT_GE((*db)->stats().row_cache_hits, 10u);
}

// A put into a full row cache evicts the LRU row first, even when the key
// being put is already cached: the cache ends one row short of full.
TEST(Database, RowCachePutOnFullCacheEvictsBeforeInsert) {
  DirectFs env;
  Database::Config config;
  config.row_cache_entries = 2;
  auto db = Database::Open(&env.client, "/rc.db", config);
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(1, Value("one")).ok());
  ASSERT_TRUE((*table)->Insert(2, Value("two")).ok());  // Cache {1, 2}, 1 is LRU.
  ASSERT_TRUE((*table)->Update(2, Value("TWO")).ok());  // Evicts 1, then rewrites 2.

  const uint64_t hits = (*db)->stats().row_cache_hits;
  auto two = (*table)->Query(2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(std::string(two->begin(), two->end()), "TWO");
  EXPECT_EQ((*db)->stats().row_cache_hits, hits + 1);
  auto one = (*table)->Query(1);  // Miss: 1 was evicted; refills without evicting 2.
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(std::string(one->begin(), one->end()), "one");
  EXPECT_EQ((*db)->stats().row_cache_hits, hits + 1);
  ASSERT_TRUE((*table)->Query(2).ok());
  ASSERT_TRUE((*table)->Query(1).ok());
  EXPECT_EQ((*db)->stats().row_cache_hits, hits + 3);
}

TEST(Database, WritesGoThroughJournal) {
  DirectFs env;
  auto db = Database::Open(&env.client, "/j.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(1, Value("x")).ok());
  // The journal file exists beside the database.
  EXPECT_TRUE(env.client.Open("/j.db-journal").ok());
}

TEST(Database, JournalCanBeDisabled) {
  DirectFs env;
  Database::Config config;
  config.use_journal = false;
  auto db = Database::Open(&env.client, "/nj.db", config);
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(1, Value("x")).ok());
  EXPECT_FALSE(env.client.Open("/nj.db-journal").ok());
}

TEST(Database, TenThousandRecordLoad) {
  // The paper's YCSB table: 10,000 records with ~100-byte values.
  DirectFs env;
  auto db = Database::Open(&env.client, "/big.db");
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable("usertable");
  ASSERT_TRUE(table.ok());
  std::vector<uint8_t> value(100, 0xab);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE((*table)->Insert(k, value).ok()) << k;
  }
  EXPECT_EQ(*(*table)->RowCount(), 10000u);
  ASSERT_TRUE((*table)->btree().Validate().ok());
  auto v = (*table)->Query(9999);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 100u);
}

}  // namespace
}  // namespace minisql
