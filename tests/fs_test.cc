// xv6fs tests: format/mount, files, directories, the write-ahead log and
// crash recovery, plus the block device and RPC layers.

#include "src/fs/xv6fs.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/base/logging.h"
#include "src/fs/block_device.h"
#include "src/fs/fs_rpc.h"

namespace fsys {
namespace {

// A transport that talks straight to a RamDisk (no kernel, no charging).
BlockTransport DirectTransport(RamDisk* disk) {
  return [disk](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    switch (msg.tag) {
      case kBlockRead: {
        uint32_t block = 0;
        std::memcpy(&block, msg.data.data(), 4);
        mk::Message reply(1);
        reply.data.resize(kBlockSize);
        SB_RETURN_IF_ERROR(disk->Read(nullptr, block, reply.data));
        return reply;
      }
      case kBlockWrite: {
        uint32_t block = 0;
        std::memcpy(&block, msg.data.data(), 4);
        SB_RETURN_IF_ERROR(disk->Write(
            nullptr, block, std::span<const uint8_t>(msg.data.data() + 4, kBlockSize)));
        return mk::Message(1);
      }
      default:
        return sb::InvalidArgument("bad block op");
    }
  };
}

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : disk_(4096),
        fs_(DirectTransport(&disk_), Xv6Fs::Config{4096, 512, kLogCapacity + 1, 64}) {}

  void Format() {
    ASSERT_TRUE(fs_.Mkfs().ok());
    ASSERT_TRUE(fs_.Mount().ok());
  }

  RamDisk disk_;
  Xv6Fs fs_;
};

TEST_F(FsTest, MkfsAndMount) {
  Format();
  EXPECT_EQ(fs_.superblock().magic, kFsMagic);
  EXPECT_EQ(fs_.superblock().size, 4096u);
  auto names = fs_.ListDir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST_F(FsTest, MountFailsOnBlankDisk) {
  EXPECT_FALSE(fs_.Mount().ok());
}

TEST_F(FsTest, CreateWriteRead) {
  Format();
  auto inum = fs_.Create("/hello.txt");
  ASSERT_TRUE(inum.ok());
  const std::string text = "hello, microkernel world";
  ASSERT_TRUE(fs_.WriteFile(*inum, 0,
                            std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                  .ok());
  std::vector<uint8_t> out(text.size());
  auto n = fs_.ReadFile(*inum, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, text.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), text);
  EXPECT_EQ(*fs_.FileSize(*inum), text.size());
}

TEST_F(FsTest, LookupFindsCreatedFile) {
  Format();
  auto inum = fs_.Create("/f1");
  ASSERT_TRUE(inum.ok());
  auto found = fs_.Lookup("/f1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *inum);
  EXPECT_FALSE(fs_.Lookup("/nope").ok());
}

TEST_F(FsTest, DuplicateCreateFails) {
  Format();
  ASSERT_TRUE(fs_.Create("/f").ok());
  EXPECT_FALSE(fs_.Create("/f").ok());
}

TEST_F(FsTest, SubdirectoryPaths) {
  Format();
  auto dir = fs_.Create("/etc", InodeType::kDir);
  ASSERT_TRUE(dir.ok());
  auto file = fs_.Create("/etc/config");
  ASSERT_TRUE(file.ok());
  auto found = fs_.Lookup("/etc/config");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *file);
  auto names = fs_.ListDir("/etc");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "config");
}

TEST_F(FsTest, LargeFileSpansIndirectBlocks) {
  Format();
  auto inum = fs_.Create("/big");
  ASSERT_TRUE(inum.ok());
  // Past the direct blocks (12 * 512) and into the single-indirect range.
  std::vector<uint8_t> chunk(kBlockSize, 0);
  for (uint32_t i = 0; i < 40; ++i) {
    std::fill(chunk.begin(), chunk.end(), static_cast<uint8_t>(i));
    ASSERT_TRUE(fs_.WriteFile(*inum, i * kBlockSize, chunk).ok()) << "block " << i;
  }
  for (uint32_t i = 0; i < 40; ++i) {
    std::vector<uint8_t> out(kBlockSize);
    ASSERT_TRUE(fs_.ReadFile(*inum, i * kBlockSize, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(i));
    EXPECT_EQ(out[kBlockSize - 1], static_cast<uint8_t>(i));
  }
}

TEST_F(FsTest, DoubleIndirectRange) {
  Format();
  auto inum = fs_.Create("/huge");
  ASSERT_TRUE(inum.ok());
  // One write far beyond direct + single-indirect (12 + 128 blocks).
  const uint32_t far_block = kNumDirect + kPtrsPerBlock + 10;
  std::vector<uint8_t> chunk(kBlockSize, 0x5a);
  ASSERT_TRUE(fs_.WriteFile(*inum, far_block * kBlockSize, chunk).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(fs_.ReadFile(*inum, far_block * kBlockSize, out).ok());
  EXPECT_EQ(out[100], 0x5a);
}

TEST_F(FsTest, OverwriteInPlace) {
  Format();
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> a(100, 'a');
  std::vector<uint8_t> b(50, 'b');
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, a).ok());
  ASSERT_TRUE(fs_.WriteFile(*inum, 25, b).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(fs_.ReadFile(*inum, 0, out).ok());
  EXPECT_EQ(out[0], 'a');
  EXPECT_EQ(out[30], 'b');
  EXPECT_EQ(out[80], 'a');
  EXPECT_EQ(*fs_.FileSize(*inum), 100u);
}

TEST_F(FsTest, UnlinkFreesAndRemoves) {
  Format();
  auto inum = fs_.Create("/gone");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(2048, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Unlink("/gone").ok());
  EXPECT_FALSE(fs_.Lookup("/gone").ok());
  // The freed space is reusable.
  auto inum2 = fs_.Create("/new");
  ASSERT_TRUE(inum2.ok());
  ASSERT_TRUE(fs_.WriteFile(*inum2, 0, data).ok());
}

TEST_F(FsTest, ReadBeyondEofReturnsShort) {
  Format();
  auto inum = fs_.Create("/short");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(10, 7);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  std::vector<uint8_t> out(100);
  auto n = fs_.ReadFile(*inum, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  EXPECT_EQ(*fs_.ReadFile(*inum, 50, out), 0u);
}

TEST_F(FsTest, TransactionGroupsWrites) {
  Format();
  auto inum = fs_.Create("/txn");
  ASSERT_TRUE(inum.ok());
  const uint64_t before = fs_.stats().transactions;
  ASSERT_TRUE(fs_.BeginOp().ok());
  std::vector<uint8_t> data(64, 9);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.WriteFile(*inum, 64, data).ok());
  ASSERT_TRUE(fs_.EndOp().ok());
  EXPECT_EQ(fs_.stats().transactions, before + 1);
}

// Crash consistency: a committed-but-not-installed log replays on mount.
TEST_F(FsTest, LogRecoveryReplaysCommittedTransaction) {
  Format();
  auto inum = fs_.Create("/durable");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(kBlockSize, 0xcd);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());

  // Find the file's data block and simulate a torn install: clobber the
  // home location but leave the (already cleared) log alone. Then write a
  // committed log that restores it.
  const Superblock& sb = fs_.superblock();
  // Re-read inode from disk directly to find the data block.
  std::vector<uint8_t> iblock(kBlockSize);
  ASSERT_TRUE(disk_.Read(nullptr, sb.inode_start + *inum / 8, iblock).ok());
  DiskInode dino;
  std::memcpy(&dino, iblock.data() + (*inum % 8) * sizeof(DiskInode), sizeof(dino));
  const uint32_t data_block = dino.addrs[0];
  ASSERT_NE(data_block, 0u);

  // "Crash": home location gets garbage, but the log contains the commit.
  std::vector<uint8_t> garbage(kBlockSize, 0xff);
  ASSERT_TRUE(disk_.Write(nullptr, data_block, garbage).ok());
  ASSERT_TRUE(disk_.Write(nullptr, sb.log_start + 1, data).ok());
  std::vector<uint8_t> header(kBlockSize, 0);
  const uint32_t n = 1;
  std::memcpy(header.data(), &n, 4);
  std::memcpy(header.data() + 4, &data_block, 4);
  ASSERT_TRUE(disk_.Write(nullptr, sb.log_start, header).ok());

  // Remount: recovery must reinstall the logged block.
  Xv6Fs fs2(DirectTransport(&disk_));
  ASSERT_TRUE(fs2.Mount().ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(fs2.ReadFile(*inum, 0, out).ok());
  EXPECT_EQ(out[0], 0xcd);
  EXPECT_EQ(out[kBlockSize - 1], 0xcd);
}

TEST_F(FsTest, WriteAmplificationFromLogging) {
  Format();
  auto inum = fs_.Create("/wa");
  ASSERT_TRUE(inum.ok());
  const uint64_t before = fs_.stats().block_writes;
  std::vector<uint8_t> data(kBlockSize, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  // Each logged block is written twice (log + home) plus 2 header writes.
  EXPECT_GE(fs_.stats().block_writes - before, 6u);
}

TEST_F(FsTest, RenameMovesFile) {
  Format();
  auto inum = fs_.Create("/old");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(100, 0x2a);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Rename("/old", "/new").ok());
  EXPECT_FALSE(fs_.Lookup("/old").ok());
  auto moved = fs_.Lookup("/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *inum);
  EXPECT_EQ(*fs_.FileSize(*moved), 100u);
  EXPECT_TRUE(fs_.Fsck().ok());
}

TEST_F(FsTest, RenameReplacesTarget) {
  Format();
  auto a = fs_.Create("/a");
  auto b = fs_.Create("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> data(50, 0x11);
  ASSERT_TRUE(fs_.WriteFile(*a, 0, data).ok());
  ASSERT_TRUE(fs_.Rename("/a", "/b").ok());
  auto replaced = fs_.Lookup("/b");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, *a);  // /b now refers to the old /a inode.
  EXPECT_FALSE(fs_.Lookup("/a").ok());
  const sb::Status fsck = fs_.Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();  // The old /b inode was freed.
}

TEST_F(FsTest, RenameAcrossDirectories) {
  Format();
  ASSERT_TRUE(fs_.Create("/d", InodeType::kDir).ok());
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(fs_.Rename("/f", "/d/f").ok());
  EXPECT_FALSE(fs_.Lookup("/f").ok());
  EXPECT_EQ(*fs_.Lookup("/d/f"), *inum);
}

TEST_F(FsTest, RenameMissingSourceFails) {
  Format();
  EXPECT_FALSE(fs_.Rename("/ghost", "/x").ok());
}

TEST_F(FsTest, FsckPassesAfterActivity) {
  Format();
  auto a = fs_.Create("/a");
  auto dir = fs_.Create("/d", InodeType::kDir);
  auto b = fs_.Create("/d/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> data(3000, 0x31);
  ASSERT_TRUE(fs_.WriteFile(*a, 0, data).ok());
  ASSERT_TRUE(fs_.WriteFile(*b, 0, data).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  const sb::Status fsck = fs_.Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
}

TEST_F(FsTest, FsckDetectsBitmapCorruption) {
  Format();
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(600, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Fsck().ok());

  // Corrupt the bitmap on disk: mark an unreferenced data block used.
  const Superblock& sb = fs_.superblock();
  std::vector<uint8_t> bmap(kBlockSize);
  ASSERT_TRUE(disk_.Read(nullptr, sb.bmap_start, bmap).ok());
  const uint32_t victim = sb.size - 2;
  bmap[victim / 8] |= static_cast<uint8_t>(1u << (victim % 8));
  ASSERT_TRUE(disk_.Write(nullptr, sb.bmap_start + victim / (kBlockSize * 8), bmap).ok());

  // Remount so the corruption is visible through the cache.
  Xv6Fs fs2(DirectTransport(&disk_), Xv6Fs::Config{4096, 512, kLogCapacity + 1, 64});
  ASSERT_TRUE(fs2.Mount().ok());
  EXPECT_FALSE(fs2.Fsck().ok());
}

// Buffer-cache replacement, observed through the block traffic of a
// 4-entry cache over a file written by a normally sized one.
class FsEvictionTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kFileBlocks = 5;

  FsEvictionTest() : disk_(4096) {
    Xv6Fs writer(DirectTransport(&disk_));
    SB_CHECK(writer.Mkfs().ok());
    SB_CHECK(writer.Mount().ok());
    inum_ = *writer.Create("/f");
    const std::vector<uint8_t> data(kFileBlocks * kBlockSize, 0x11);
    SB_CHECK(writer.WriteFile(inum_, 0, data).ok());
  }

  // Records the home block of every transport read and write; fails writes
  // while fail_writes_ is set.
  BlockTransport Recording() {
    return [this](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
      uint32_t block = 0;
      std::memcpy(&block, msg.data.data(), 4);
      if (msg.tag == kBlockWrite) {
        if (fail_writes_) {
          return sb::Unavailable("injected write failure");
        }
        writes_.push_back(block);
      } else {
        reads_.push_back(block);
      }
      return DirectTransport(&disk_)(msg);
    };
  }

  std::unique_ptr<Xv6Fs> SmallCache() {
    auto fs = std::make_unique<Xv6Fs>(Recording(), Xv6Fs::Config{4096, 512, kLogCapacity + 1, 4});
    SB_CHECK(fs->Mount().ok());
    return fs;
  }

  // Reads file block `fbn`; returns how many blocks came from the device.
  size_t ReadBlock(Xv6Fs& fs, uint32_t fbn) {
    const size_t before = reads_.size();
    std::vector<uint8_t> out(kBlockSize);
    SB_CHECK(fs.ReadFile(inum_, fbn * kBlockSize, out).ok());
    return reads_.size() - before;
  }

  // The device block behind each file block, learned from a cold cache.
  std::vector<uint32_t> DataBlocks() {
    std::vector<uint32_t> blocks;
    for (uint32_t fbn = 0; fbn < kFileBlocks; ++fbn) {
      (void)ReadBlock(*SmallCache(), fbn);
      blocks.push_back(reads_.back());
    }
    return blocks;
  }

  RamDisk disk_;
  uint32_t inum_ = 0;
  bool fail_writes_ = false;
  std::vector<uint32_t> reads_;
  std::vector<uint32_t> writes_;
};

TEST_F(FsEvictionTest, EvictsTheLeastRecentlyUsedBlock) {
  std::unique_ptr<Xv6Fs> small = SmallCache();
  Xv6Fs& fs = *small;
  EXPECT_EQ(ReadBlock(fs, 0), 2u);  // Inode block + data block 0.
  EXPECT_EQ(ReadBlock(fs, 1), 1u);
  EXPECT_EQ(ReadBlock(fs, 2), 1u);  // Full: inode, 0, 1, 2.
  EXPECT_EQ(ReadBlock(fs, 0), 0u);  // Block 1 is now the least recently used.
  EXPECT_EQ(ReadBlock(fs, 3), 1u);  // Evicts block 1.
  EXPECT_EQ(ReadBlock(fs, 0), 0u);
  EXPECT_EQ(ReadBlock(fs, 2), 0u);
  EXPECT_EQ(ReadBlock(fs, 3), 0u);
  EXPECT_EQ(ReadBlock(fs, 1), 1u);
  EXPECT_TRUE(writes_.empty());
}

TEST_F(FsEvictionTest, SkipsBlocksPinnedByTheOpenTransaction) {
  std::unique_ptr<Xv6Fs> small = SmallCache();
  Xv6Fs& fs = *small;
  ASSERT_TRUE(fs.BeginOp().ok());
  const std::vector<uint8_t> data(kBlockSize, 0x22);
  ASSERT_TRUE(fs.WriteFile(inum_, 0, data).ok());  // Pins data block 0 and the inode.
  EXPECT_EQ(ReadBlock(fs, 1), 1u);
  EXPECT_EQ(ReadBlock(fs, 2), 1u);
  EXPECT_EQ(ReadBlock(fs, 3), 1u);  // LRU is pinned block 0: evicts block 1.
  EXPECT_TRUE(writes_.empty());
  ASSERT_TRUE(fs.EndOp().ok());
  EXPECT_EQ(ReadBlock(fs, 0), 0u);
  EXPECT_EQ(ReadBlock(fs, 1), 1u);
}

TEST_F(FsEvictionTest, FlushesADirtyVictimToItsHomeBlock) {
  const std::vector<uint32_t> blocks = DataBlocks();
  std::unique_ptr<Xv6Fs> small = SmallCache();
  Xv6Fs& fs = *small;
  ASSERT_TRUE(fs.BeginOp().ok());
  const std::vector<uint8_t> data(kBlockSize, 0x33);
  ASSERT_TRUE(fs.WriteFile(inum_, 0, data).ok());
  // A failed commit leaves block 0 and the inode dirty but no longer pinned.
  fail_writes_ = true;
  EXPECT_FALSE(fs.EndOp().ok());
  fail_writes_ = false;
  writes_.clear();
  EXPECT_EQ(ReadBlock(fs, 1), 1u);
  EXPECT_EQ(ReadBlock(fs, 2), 1u);
  EXPECT_TRUE(writes_.empty());
  EXPECT_EQ(ReadBlock(fs, 3), 1u);  // Evicts dirty block 0: written home first.
  EXPECT_EQ(writes_, std::vector<uint32_t>{blocks[0]});
  std::vector<uint8_t> home(kBlockSize);
  ASSERT_TRUE(disk_.Read(nullptr, blocks[0], home).ok());
  EXPECT_EQ(home, data);
}

TEST(RamDisk, ReadWriteRoundTrip) {
  RamDisk disk(16);
  std::vector<uint8_t> in(kBlockSize, 0x77);
  ASSERT_TRUE(disk.Write(nullptr, 3, in).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(disk.Read(nullptr, 3, out).ok());
  EXPECT_EQ(in, out);
  EXPECT_FALSE(disk.Read(nullptr, 16, out).ok());
  EXPECT_EQ(disk.reads(), 1u);  // Rejected reads are not counted.
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(FsRpc, ClientServerRoundTripOverDirectHandler) {
  RamDisk disk(4096);
  Xv6Fs fs(DirectTransport(&disk));
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  // Drive the RPC handler with a fake CallEnv on a standalone machine.
  hw::MachineConfig mc;
  mc.num_cores = 1;
  mc.ram_bytes = 1ULL << 30;
  hw::Machine machine(mc);
  mk::Kernel kernel(machine, mk::Sel4Profile(), mk::KernelOptions{false, {}, 1 << 20, 1 << 20, 1 << 20});
  ASSERT_TRUE(kernel.Boot().ok());
  auto proc = kernel.CreateProcess("fs");
  ASSERT_TRUE(proc.ok());

  mk::Handler handler = MakeFsHandler(&fs);
  FsClient client([&](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    mk::CallEnv env{kernel, machine.core(0), **proc, msg};
    return handler(env);
  });

  auto inum = client.Create("/rpc.txt");
  ASSERT_TRUE(inum.ok());
  const std::string text = "over the wire";
  ASSERT_TRUE(client
                  .Write(*inum, 0,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                  .ok());
  auto data = client.Read(*inum, 0, 64);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), text);
  EXPECT_EQ(*client.Size(*inum), text.size());
  EXPECT_EQ(*client.Open("/rpc.txt"), *inum);
  ASSERT_TRUE(client.Unlink("/rpc.txt").ok());
  EXPECT_FALSE(client.Open("/rpc.txt").ok());
  EXPECT_EQ(client.rpcs(), 7u);
}

}  // namespace
}  // namespace fsys
