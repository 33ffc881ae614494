// Hardware-model tests: physical memory, caches, TLB tagging, EPT walks,
// guest paging and — most importantly — the end-to-end CR3-remap behaviour
// that SkyBridge's VMFUNC address-space switch relies on.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/hw/cache.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"

namespace hw {
namespace {

using sb::kGiB;
using sb::kMiB;
using sb::kPageSize;

TEST(HostPhysMem, ReadWriteRoundTrip) {
  HostPhysMem mem(16 * kMiB);
  mem.WriteU64(0x1000, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(mem.ReadU64(0x1000), 0xdeadbeefcafef00dULL);
}

TEST(HostPhysMem, UntouchedReadsZero) {
  HostPhysMem mem(16 * kMiB);
  EXPECT_EQ(mem.ReadU64(0x5000), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);
}

TEST(HostPhysMem, CrossFrameAccess) {
  HostPhysMem mem(16 * kMiB);
  std::vector<uint8_t> data(kPageSize * 2, 0xab);
  mem.Write(0x800, data);
  std::vector<uint8_t> out(data.size());
  mem.Read(0x800, out);
  EXPECT_EQ(out, data);
}

// A word inside one frame is read and written in place; one that straddles
// two frames (offset 4092) goes through Read/Write. A read never backs a frame.
TEST(HostPhysMem, WordAccessAtFrameEdges) {
  HostPhysMem mem(16 * kMiB);
  const Hpa frame = 0x3000;
  EXPECT_EQ(mem.ReadU64(frame), 0u);
  EXPECT_EQ(mem.ReadU64(frame + 4088), 0u);
  EXPECT_EQ(mem.ReadU64(frame + 4092), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);

  mem.WriteU64(frame, 0x0102030405060708ULL);
  mem.WriteU64(frame + 4088, 0x1112131415161718ULL);
  EXPECT_EQ(mem.resident_frames(), 1u);
  EXPECT_EQ(mem.ReadU64(frame), 0x0102030405060708ULL);
  EXPECT_EQ(mem.ReadU64(frame + 4088), 0x1112131415161718ULL);
  EXPECT_EQ(mem.ReadU64(frame + kPageSize), 0u);
  EXPECT_EQ(mem.resident_frames(), 1u);

  // Low half into this frame's last four bytes, high half into the next.
  mem.WriteU64(frame + 4092, 0x2122232425262728ULL);
  EXPECT_EQ(mem.resident_frames(), 2u);
  EXPECT_EQ(mem.ReadU64(frame + 4092), 0x2122232425262728ULL);
  EXPECT_EQ(mem.ReadU64(frame + 4088), 0x2526272815161718ULL);
  EXPECT_EQ(mem.ReadU32(frame + kPageSize), 0x21222324u);
}

TEST(FrameAllocator, AllocatesDistinctZeroedFrames) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 1 * kMiB);
  auto f1 = alloc.Alloc(mem);
  auto f2 = alloc.Alloc(mem);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(*f1, *f2);
  EXPECT_EQ(mem.ReadU64(*f1), 0u);
  EXPECT_EQ(alloc.allocated_frames(), 2u);
}

TEST(FrameAllocator, ExhaustsAndRecycles) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 2 * kPageSize);
  auto f1 = alloc.Alloc(mem);
  auto f2 = alloc.Alloc(mem);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_FALSE(alloc.Alloc(mem).ok());
  alloc.Free(*f1);
  auto f3 = alloc.Alloc(mem);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(*f3, *f1);
}

TEST(Cache, HitAfterMiss) {
  Cache cache(L1dConfig());
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1020));  // Same 64B line? No: 0x1020 is a
                                      // different offset but same line.
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction) {
  // 2-way tiny cache: lines mapping to the same set evict LRU order.
  CacheConfig config{"tiny", 2 * 64, 2, 64};  // 1 set, 2 ways.
  Cache cache(config);
  EXPECT_FALSE(cache.Access(0x0));
  EXPECT_FALSE(cache.Access(0x40));
  EXPECT_TRUE(cache.Access(0x0));    // 0x40 is now LRU.
  EXPECT_FALSE(cache.Access(0x80));  // Evicts 0x40.
  EXPECT_FALSE(cache.Access(0x40));
  EXPECT_TRUE(cache.Probe(0x40));
}

TEST(Cache, FlushClears) {
  Cache cache(L1dConfig());
  cache.Access(0x1000);
  cache.Flush();
  EXPECT_FALSE(cache.Probe(0x1000));
}

// Every line of a full L1d resident at once; the next fill of a set evicts
// that set's least recently used way and nothing else.
TEST(Cache, FullCacheEvictsOnlyTheSetsLruWay) {
  Cache cache(L1dConfig());
  const uint64_t lines = L1dConfig().size_bytes / 64;  // 512: 64 sets x 8 ways.
  for (uint64_t i = 0; i < lines; ++i) {
    EXPECT_FALSE(cache.Access(i * 64));
  }
  for (uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(cache.Access(i * 64));
  }
  EXPECT_TRUE(cache.Access(0));            // Set 0's LRU way is now line 64.
  EXPECT_FALSE(cache.Access(lines * 64));  // Same set as line 0.
  EXPECT_TRUE(cache.Probe(0));
  EXPECT_FALSE(cache.Probe(64 * 64));
  for (uint64_t i = 1; i < lines; ++i) {
    EXPECT_EQ(cache.Probe(i * 64), i != 64) << i;
  }
  EXPECT_EQ(cache.misses(), lines + 1);
}

TEST(Tlb, HitRequiresMatchingTags) {
  Tlb tlb(16);
  TlbEntry e{0x5000, false, true};
  tlb.Insert(0x400000, 12, /*vpid=*/1, /*pcid=*/2, /*ep4ta=*/0x9000, e);
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0x400123, 1, 2, 0x9000, &shift), nullptr);
  EXPECT_EQ(shift, 12);
  // Different EP4TA: miss (this is why VMFUNC needs no flush).
  EXPECT_EQ(tlb.Lookup(0x400123, 1, 2, 0xa000, &shift), nullptr);
  // Different PCID: miss for non-global entries.
  EXPECT_EQ(tlb.Lookup(0x400123, 1, 3, 0x9000, &shift), nullptr);
}

TEST(Tlb, GlobalEntriesMatchAnyPcid) {
  Tlb tlb(16);
  TlbEntry e{0x5000, /*global=*/true, true};
  tlb.Insert(0xffff800000000000ULL, 12, 1, /*pcid=*/7, 0, e);
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0xffff800000000123ULL, 1, /*pcid=*/9, 0, &shift), nullptr);
}

TEST(Tlb, FlushPcidSparesGlobals) {
  Tlb tlb(16);
  tlb.Insert(0x400000, 12, 1, 2, 0, TlbEntry{0x5000, false, true});
  tlb.Insert(0xffff800000000000ULL, 12, 1, 2, 0, TlbEntry{0x6000, true, true});
  tlb.FlushPcid(1, 2);
  uint8_t shift = 0;
  EXPECT_EQ(tlb.Lookup(0x400000, 1, 2, 0, &shift), nullptr);
  EXPECT_NE(tlb.Lookup(0xffff800000000000ULL, 1, 2, 0, &shift), nullptr);
}

TEST(Tlb, LruCapacity) {
  Tlb tlb(2);
  tlb.Insert(0x1000, 12, 1, 0, 0, TlbEntry{});
  tlb.Insert(0x2000, 12, 1, 0, 0, TlbEntry{});
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0x1000, 1, 0, 0, &shift), nullptr);  // Touch 0x1000.
  tlb.Insert(0x3000, 12, 1, 0, 0, TlbEntry{});              // Evicts 0x2000.
  EXPECT_NE(tlb.Lookup(0x1000, 1, 0, 0, &shift), nullptr);
  EXPECT_EQ(tlb.Lookup(0x2000, 1, 0, 0, &shift), nullptr);
}

// The modelled dTLB+STLB size: 1536 entries resident at once, then exact
// LRU replacement one entry at a time.
TEST(Tlb, FullCapacityEvictsLeastRecentlyUsedAt1536) {
  constexpr uint64_t kEntries = 1536;
  Tlb tlb(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    tlb.Insert(i << 12, 12, 1, 0, 0, TlbEntry{(i + 1) << 12, false, true});
  }
  EXPECT_EQ(tlb.size(), kEntries);
  uint8_t shift = 0;
  for (uint64_t i = 0; i < kEntries; ++i) {
    const TlbEntry* e = tlb.Lookup(i << 12, 1, 0, 0, &shift);
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->frame, (i + 1) << 12);
  }
  EXPECT_NE(tlb.Lookup(0, 1, 0, 0, &shift), nullptr);  // Entry 1 becomes the LRU.
  tlb.Insert(kEntries << 12, 12, 1, 0, 0, TlbEntry{});
  EXPECT_EQ(tlb.size(), kEntries);
  EXPECT_EQ(tlb.Lookup(1 << 12, 1, 0, 0, &shift), nullptr);
  for (uint64_t i = 2; i <= kEntries; ++i) {
    EXPECT_NE(tlb.Lookup(i << 12, 1, 0, 0, &shift), nullptr) << i;
  }
  EXPECT_NE(tlb.Lookup(0, 1, 0, 0, &shift), nullptr);
  // Refilling entry 1 now evicts entry 2, the oldest of the second pass.
  tlb.Insert(1 << 12, 12, 1, 0, 0, TlbEntry{});
  EXPECT_EQ(tlb.Lookup(2 << 12, 1, 0, 0, &shift), nullptr);
  EXPECT_EQ(tlb.size(), kEntries);
}

class EptTest : public ::testing::Test {
 protected:
  EptTest() : mem_(1 * kGiB), frames_(256 * kMiB, 128 * kMiB) {}

  HostPhysMem mem_;
  FrameAllocator frames_;
};

TEST_F(EptTest, MapAndWalk4K) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0x1000, 0x555000, kPageSize, kEptRwx).ok());
  const EptWalk walk = (*ept)->Walk(0x1234, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x555234u);
  EXPECT_EQ(walk.num_table_reads, 4);
}

TEST_F(EptTest, WalkFaultsOnUnmapped) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  const EptWalk walk = (*ept)->Walk(0x99999000, kEptRead);
  EXPECT_FALSE(walk.ok);
  EXPECT_EQ(walk.fault_gpa, 0x99999000u);
}

TEST_F(EptTest, HugePage1GWalkIsShort) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  const EptWalk walk = (*ept)->Walk(0x12345678, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x12345678u);
  EXPECT_EQ(walk.num_table_reads, 2);  // PML4E + PDPTE(1G leaf).
  EXPECT_EQ(walk.page_shift, 30);
}

TEST_F(EptTest, RejectsDoubleMap) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0x1000, 0x2000, kPageSize, kEptRwx).ok());
  EXPECT_FALSE((*ept)->Map(0x1000, 0x3000, kPageSize, kEptRwx).ok());
}

TEST_F(EptTest, ShallowCopySharesMappings) {
  auto base = Ept::Create(mem_, frames_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto copy = (*base)->ShallowCopy();
  ASSERT_TRUE(copy.ok());
  const EptWalk walk = (*copy)->Walk(0x777000, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x777000u);
  EXPECT_EQ((*copy)->private_table_pages(), 1u);  // Just the new root.
}

TEST_F(EptTest, RemapGpaPageSplitsHugePagesAndIsolates) {
  auto base = Ept::Create(mem_, frames_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto derived = (*base)->ShallowCopy();
  ASSERT_TRUE(derived.ok());

  ASSERT_TRUE((*derived)->RemapGpaPage(0x123000, 0x9000000).ok());
  // The derived EPT translates the remapped page differently...
  const EptWalk dwalk = (*derived)->Walk(0x123456, kEptRead);
  ASSERT_TRUE(dwalk.ok);
  EXPECT_EQ(dwalk.hpa, 0x9000456u);
  // ...while neighbours and the base EPT are untouched.
  EXPECT_EQ((*derived)->Walk(0x124000, kEptRead).hpa, 0x124000u);
  EXPECT_EQ((*base)->Walk(0x123456, kEptRead).hpa, 0x123456u);
  // Paper Section 4.3: only four pages are modified for the remap.
  EXPECT_EQ((*derived)->private_table_pages(), 4u);
}

// The split writes every entry of the new table: the 1G leaf becomes 512 2M
// leaves, and the 2M leaf holding the page becomes 512 4K leaves.
TEST_F(EptTest, RemapGpaPageSplitWritesEveryEntry) {
  constexpr uint64_t kFrameMask = 0x000ffffffffff000ULL;
  constexpr uint64_t kLarge = 1ULL << 7;
  auto base = Ept::Create(mem_, frames_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto derived = (*base)->ShallowCopy();
  ASSERT_TRUE(derived.ok());
  ASSERT_TRUE((*derived)->RemapGpaPage(0x123000, 0x9000000).ok());

  const Hpa pdpt = mem_.ReadU64((*derived)->root()) & kFrameMask;
  const uint64_t pdpte = mem_.ReadU64(pdpt);
  ASSERT_EQ(pdpte & ~kFrameMask, kEptRwx);
  const Hpa pd = pdpte & kFrameMask;
  const uint64_t pde = mem_.ReadU64(pd);
  ASSERT_EQ(pde & ~kFrameMask, kEptRwx);
  const Hpa pt = pde & kFrameMask;
  for (uint64_t i = 1; i < 512; ++i) {
    EXPECT_EQ(mem_.ReadU64(pd + i * 8), (i * sb::kHugePage2M) | kLarge | kEptRwx) << i;
  }
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t target = i == 0x123 ? 0x9000000 : i * kPageSize;
    EXPECT_EQ(mem_.ReadU64(pt + i * 8), target | kEptRwx) << i;
  }
}

TEST_F(EptTest, UnmapGpaPageFaults) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  ASSERT_TRUE((*ept)->UnmapGpaPage(0x5000).ok());
  EXPECT_FALSE((*ept)->Walk(0x5123, kEptRead).ok);
  EXPECT_TRUE((*ept)->Walk(0x6123, kEptRead).ok);
}

class PagingTest : public ::testing::Test {
 protected:
  PagingTest() : mem_(1 * kGiB), frames_(64 * kMiB, 64 * kMiB) {}

  HostPhysMem mem_;
  FrameAllocator frames_;
};

TEST_F(PagingTest, MapAndWalk) {
  auto as = AddressSpace::Create(mem_, frames_, /*pcid=*/1);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE((*as)->Map(0x400000, 0x800000, kPageSize, PageFlags{}).ok());
  const GuestWalk walk = (*as)->WalkVa(0x400123);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.gpa, 0x800123u);
}

TEST_F(PagingTest, MapAnonymousBacksRange) {
  auto as = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(as.ok());
  auto first = (*as)->MapAnonymous(0x600000, 3 * kPageSize, PageFlags{});
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    const GuestWalk walk = (*as)->WalkVa(0x600000 + static_cast<uint64_t>(i) * kPageSize);
    ASSERT_TRUE(walk.ok);
    EXPECT_EQ(walk.gpa, *first + static_cast<uint64_t>(i) * kPageSize);
  }
}

TEST_F(PagingTest, UnmapFaults) {
  auto as = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE((*as)->Map(0x400000, 0x800000, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*as)->Unmap(0x400000).ok());
  EXPECT_FALSE((*as)->WalkVa(0x400000).ok);
}

TEST_F(PagingTest, ShareUpperHalf) {
  auto kernel = AddressSpace::Create(mem_, frames_, 0);
  ASSERT_TRUE(kernel.ok());
  const Gva kva = 0xffff800000000000ULL;
  ASSERT_TRUE(
      (*kernel)->Map(kva, 0x800000, kPageSize, PageFlags{true, false, true, true}).ok());
  auto proc = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE((*proc)->ShareUpperHalf(**kernel).ok());
  const GuestWalk walk = (*proc)->WalkVa(kva);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.gpa, 0x800000u);
}

// ---- MapRange: one read-fill-write per leaf table ----

// Two identical machines: MapRange runs on one, one 4K Map per page on the
// other. Each case checks that both end with the same frames allocated and
// backed and the same table bytes in every one of them.
class MapRangeTest : public ::testing::Test {
 protected:
  static constexpr Gpa kTarget = 0x20000000;
  static constexpr PageFlags kFlags{/*writable=*/false, /*user=*/true, /*global=*/false,
                                    /*executable=*/false};

  MapRangeTest()
      : bulk_mem_(1 * kGiB),
        ref_mem_(1 * kGiB),
        bulk_frames_(64 * kMiB, 64 * kMiB),
        ref_frames_(64 * kMiB, 64 * kMiB) {}

  void SetUp() override {
    bulk_ = AddressSpace::Create(bulk_mem_, bulk_frames_, 1).value();
    ref_ = AddressSpace::Create(ref_mem_, ref_frames_, 1).value();
  }

  // Maps `len` bytes at `va` to kTarget on both machines; returns MapRange's
  // status after checking it against the page-by-page one.
  sb::Status MapBoth(Gva va, uint64_t len) {
    const sb::Status bulk = bulk_->MapRange(va, kTarget, len, kFlags);
    sb::Status ref;
    for (uint64_t off = 0; off < len && ref.ok(); off += kPageSize) {
      ref = ref_->Map(va + off, kTarget + off, kPageSize, kFlags);
    }
    EXPECT_EQ(bulk.code(), ref.code());
    ExpectTwins();
    return bulk;
  }

  // The same mapping on both machines.
  void MapOnBoth(Gva va, Gpa pa, uint64_t page_size) {
    ASSERT_TRUE(bulk_->Map(va, pa, page_size, kFlags).ok());
    ASSERT_TRUE(ref_->Map(va, pa, page_size, kFlags).ok());
  }

  void ExpectTwins() {
    ASSERT_EQ(bulk_frames_.allocated_frames(), ref_frames_.allocated_frames());
    EXPECT_EQ(bulk_mem_.resident_frames(), ref_mem_.resident_frames());
    std::vector<uint8_t> bulk_table(kPageSize);
    std::vector<uint8_t> ref_table(kPageSize);
    for (uint64_t i = 0; i < bulk_frames_.allocated_frames(); ++i) {
      const Hpa frame = bulk_frames_.base() + i * kPageSize;
      bulk_mem_.Read(frame, bulk_table);
      ref_mem_.Read(frame, ref_table);
      EXPECT_EQ(bulk_table, ref_table) << "table frame " << i;
    }
  }

  // Pages [first, first + count) of the range at `va` map to kTarget.
  void ExpectMapped(Gva va, uint64_t first, uint64_t count) {
    for (uint64_t i = first; i < first + count; ++i) {
      const GuestWalk walk = bulk_->WalkVa(va + i * kPageSize);
      ASSERT_TRUE(walk.ok) << "page " << i;
      EXPECT_EQ(walk.gpa, kTarget + i * kPageSize) << "page " << i;
      EXPECT_EQ(walk.page_shift, 12) << "page " << i;
    }
  }

  HostPhysMem bulk_mem_;
  HostPhysMem ref_mem_;
  FrameAllocator bulk_frames_;
  FrameAllocator ref_frames_;
  std::unique_ptr<AddressSpace> bulk_;
  std::unique_ptr<AddressSpace> ref_;
};

TEST_F(MapRangeTest, StartsMidTableAndSpansThreeLeafTables) {
  const Gva va = 0x400000 + 37 * kPageSize;
  ASSERT_TRUE(MapBoth(va, 1100 * kPageSize).ok());
  ExpectMapped(va, 0, 1100);
  EXPECT_FALSE(bulk_->WalkVa(va + 1100 * kPageSize).ok);
  EXPECT_FALSE(bulk_->WalkVa(va - kPageSize).ok);
}

TEST_F(MapRangeTest, Crosses2MiB1GiBAnd512GiBBoundaries) {
  const Gva boundaries[] = {sb::kHugePage2M, sb::kHugePage1G, 512 * sb::kHugePage1G};
  for (const Gva boundary : boundaries) {
    const Gva va = boundary - 3 * kPageSize;
    ASSERT_TRUE(MapBoth(va, 10 * kPageSize).ok()) << boundary;
    ExpectMapped(va, 0, 10);
  }
}

TEST_F(MapRangeTest, LengthRoundsUpToWholePages) {
  const Gva va = 0x800000;
  ASSERT_TRUE(MapBoth(va, 5 * kPageSize + 123).ok());
  ExpectMapped(va, 0, 6);
  EXPECT_FALSE(bulk_->WalkVa(va + 6 * kPageSize).ok);
}

TEST_F(MapRangeTest, PremappedPageStopsTheRunAfterThePrefix) {
  const Gva va = 0x1000000 + 500 * kPageSize;  // Pages 12.. lie in the next table.
  MapOnBoth(va + 7 * kPageSize, 0x30000000, kPageSize);
  EXPECT_EQ(MapBoth(va, 16 * kPageSize).code(), sb::ErrorCode::kAlreadyExists);
  ExpectMapped(va, 0, 7);
  EXPECT_EQ(bulk_->WalkVa(va + 7 * kPageSize).gpa, 0x30000000u);  // Left alone.
  for (uint64_t i = 8; i < 16; ++i) {
    EXPECT_FALSE(bulk_->WalkVa(va + i * kPageSize).ok) << "page " << i;
  }
  // A taken first page writes nothing.
  EXPECT_EQ(MapBoth(va + 7 * kPageSize, 2 * kPageSize).code(), sb::ErrorCode::kAlreadyExists);
  EXPECT_FALSE(bulk_->WalkVa(va + 8 * kPageSize).ok);
}

TEST_F(MapRangeTest, LargePageInTheWayStopsTheRun) {
  const Gva large = 3 * sb::kHugePage2M;
  MapOnBoth(large, 0x30000000, sb::kHugePage2M);
  const Gva va = large - 4 * kPageSize;
  EXPECT_EQ(MapBoth(va, 8 * kPageSize).code(), sb::ErrorCode::kAlreadyExists);
  ExpectMapped(va, 0, 4);
  const GuestWalk walk = bulk_->WalkVa(large + kPageSize);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.page_shift, 21);
  EXPECT_EQ(walk.gpa, 0x30000000u + kPageSize);
}

// ---- The core SkyBridge mechanism, end to end on the hardware model ----

class CoreTranslationTest : public ::testing::Test {
 protected:
  CoreTranslationTest()
      : machine_(MachineConfig{1, 2 * kGiB}),
        guest_frames_(16 * kMiB, 512 * kMiB),
        root_frames_(1536 * kMiB, 100 * kMiB) {}

  Machine machine_;
  FrameAllocator guest_frames_;
  FrameAllocator root_frames_;
};

TEST_F(CoreTranslationTest, NativeModeTranslatesThroughGuestPt) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());
  machine_.mem().WriteU64(*frame + 0x10, 0x1122334455667788ULL);

  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  auto value = core.ReadVirtU64(0x400010);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x1122334455667788ULL);
}

TEST_F(CoreTranslationTest, TlbCachesTranslations) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  const uint64_t misses = core.pmu().dtlb_miss;
  ASSERT_TRUE(core.ReadVirtU64(0x400008).ok());
  EXPECT_EQ(core.pmu().dtlb_miss, misses);  // Second access hits the TLB.
}

TEST_F(CoreTranslationTest, PageFaultOnUnmapped) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  EXPECT_FALSE(core.ReadVirtU64(0x400000).ok());
}

TEST_F(CoreTranslationTest, WriteProtectionEnforced) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  PageFlags ro;
  ro.writable = false;
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, ro).ok());
  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  EXPECT_TRUE(core.ReadVirtU64(0x400000).ok());
  EXPECT_FALSE(core.WriteVirtU64(0x400000, 1).ok());
}

// The SkyBridge trick: after VMFUNC to an EPT that remaps the GPA of the
// client's CR3 to the server's page-table root, the same CR3 value translates
// virtual addresses in the *server's* address space.
TEST_F(CoreTranslationTest, Cr3RemapSwitchesAddressSpaceViaVmfunc) {
  HostPhysMem& mem = machine_.mem();

  // Two processes mapping the same VA to different values.
  auto client_as = AddressSpace::Create(mem, guest_frames_, 1);
  auto server_as = AddressSpace::Create(mem, guest_frames_, 2);
  ASSERT_TRUE(client_as.ok());
  ASSERT_TRUE(server_as.ok());
  const Gva va = 0x400000;
  auto cframe = guest_frames_.Alloc(mem);
  auto sframe = guest_frames_.Alloc(mem);
  ASSERT_TRUE(cframe.ok());
  ASSERT_TRUE(sframe.ok());
  ASSERT_TRUE((*client_as)->Map(va, *cframe, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*server_as)->Map(va, *sframe, kPageSize, PageFlags{}).ok());
  mem.WriteU64(*cframe, 0xc11e47ULL);
  mem.WriteU64(*sframe, 0x5e77e7ULL);

  // Rootkernel-style base EPT: identity map with 1G pages.
  auto base_ept = Ept::Create(mem, root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  ASSERT_TRUE((*base_ept)->Map(kGiB, kGiB, sb::kHugePage1G, kEptRwx).ok());

  // Client EPT: plain copy. Server EPT: copy + CR3 remap.
  auto client_ept = (*base_ept)->ShallowCopy();
  auto server_ept = (*base_ept)->ShallowCopy();
  ASSERT_TRUE(client_ept.ok());
  ASSERT_TRUE(server_ept.ok());
  ASSERT_TRUE(
      (*server_ept)->RemapGpaPage((*client_as)->root_gpa(), (*server_as)->root_gpa()).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(client_ept->get(), /*vpid=*/1);
  core.vmcs().eptp_list.push_back(server_ept->get());
  core.WriteCr3((*client_as)->root_gpa(), 1, false);

  // In the client's EPT the VA reads the client's value.
  auto v1 = core.ReadVirtU64(va);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 0xc11e47ULL);

  // VMFUNC(0, 1): switch to the server EPT. CR3 is untouched, yet the same
  // VA now reads the server's value — the page walker fetched the *server's*
  // page tables through the remapped EPT.
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  EXPECT_EQ(core.cr3(), (*client_as)->root_gpa());
  auto v2 = core.ReadVirtU64(va);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 0x5e77e7ULL);

  // And back.
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  auto v3 = core.ReadVirtU64(va);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 0xc11e47ULL);

  // No VM exits were needed for any of this.
  EXPECT_EQ(machine_.total_vm_exits(), 0u);
}

TEST_F(CoreTranslationTest, InvalidVmfuncIndexCausesVmExit) {
  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  Core& core = machine_.core(0);
  int exits = 0;
  machine_.SetVmExitHandler([&](Core&, const VmExitInfo& info) -> uint64_t {
    EXPECT_EQ(info.reason, VmExitReason::kVmfuncInvalid);
    ++exits;
    return 0;
  });
  core.EnterNonRoot(base_ept->get(), 1);
  EXPECT_FALSE(core.Vmfunc(0, 7).ok());
  EXPECT_EQ(exits, 1);
}

TEST_F(CoreTranslationTest, VmfuncChargesDocumentedCost) {
  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  Core& core = machine_.core(0);
  core.EnterNonRoot(base_ept->get(), 1);
  const uint64_t before = core.cycles();
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  EXPECT_EQ(core.cycles() - before, machine_.costs().vmfunc);
}

TEST_F(CoreTranslationTest, VmfuncOutsideNonRootFails) {
  Core& core = machine_.core(0);
  EXPECT_FALSE(core.Vmfunc(0, 0).ok());
}

TEST_F(CoreTranslationTest, TwoDimensionalWalkChargesEptReads) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(base_ept->get(), 1);
  core.WriteCr3((*as)->root_gpa(), 1, false);

  const uint64_t before = core.pmu().mem_accesses;
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  // 2-D walk with 1G EPT pages: 4 guest levels x (2 EPT reads + 1 PTE read)
  // + 2 EPT reads for the final GPA + 1 data access = 15.
  EXPECT_EQ(core.pmu().mem_accesses - before, 15u);
}

// Paper Section 4.1: "one TLB miss in the 2-level address translation may
// require at most 24 memory accesses". With 4 KiB EPT pages, our walker hits
// exactly that bound: 4 guest levels x (4 EPT reads + 1 PTE read) + 4 EPT
// reads for the final GPA = 24, plus the data access itself.
TEST_F(CoreTranslationTest, TwoDimensionalWalkWorstCaseIs24Accesses) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  // Build a 4 KiB-page EPT covering the guest range (no huge pages).
  auto ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(ept.ok());
  auto map_page = [&](Gpa gpa) {
    ASSERT_TRUE((*ept)->Map(sb::PageDown(gpa), sb::PageDown(gpa), kPageSize, kEptRwx).ok());
  };
  // Map the pages the walk will touch: the four guest table pages + target.
  const GuestWalk walk = (*as)->WalkVa(0x400000);
  ASSERT_TRUE(walk.ok);
  Gpa table = (*as)->root_gpa();
  map_page(table);
  for (int level = 4; level > 1; --level) {
    const int index = static_cast<int>((0x400000ull >> (12 + 9 * (level - 1))) & 0x1ff);
    const uint64_t entry = machine_.mem().ReadU64(table + static_cast<uint64_t>(index) * 8);
    table = entry & kPteFrameMask;
    map_page(table);
  }
  map_page(*frame);

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(ept->get(), 1);
  core.WriteCr3((*as)->root_gpa(), 1, false);

  const uint64_t before = core.pmu().mem_accesses;
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  // 24 walk accesses + 1 data access.
  EXPECT_EQ(core.pmu().mem_accesses - before, 25u);
}

// Table 2: VMFUNC with VPID enabled does not flush the TLB — translations
// cached under each EPTP survive round trips through the other.
TEST_F(CoreTranslationTest, VmfuncDoesNotFlushTlb) {
  HostPhysMem& mem = machine_.mem();
  auto client_as = AddressSpace::Create(mem, guest_frames_, 1);
  auto server_as = AddressSpace::Create(mem, guest_frames_, 2);
  ASSERT_TRUE(client_as.ok());
  ASSERT_TRUE(server_as.ok());
  const Gva va = 0x400000;
  auto cframe = guest_frames_.Alloc(mem);
  auto sframe = guest_frames_.Alloc(mem);
  ASSERT_TRUE((*client_as)->Map(va, *cframe, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*server_as)->Map(va, *sframe, kPageSize, PageFlags{}).ok());

  auto base_ept = Ept::Create(mem, root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto client_ept = (*base_ept)->ShallowCopy();
  auto server_ept = (*base_ept)->ShallowCopy();
  ASSERT_TRUE(
      (*server_ept)->RemapGpaPage((*client_as)->root_gpa(), (*server_as)->root_gpa()).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(client_ept->get(), 1);
  core.vmcs().eptp_list.push_back(server_ept->get());
  core.WriteCr3((*client_as)->root_gpa(), 1, false);

  // Warm both views.
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());

  // Now both translations hit: a full round trip adds no TLB misses.
  const uint64_t misses = core.pmu().dtlb_miss;
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  EXPECT_EQ(core.pmu().dtlb_miss, misses);
}

// ---- Contiguous backing (shared-buffer regions) ----

TEST(HostPhysMem, BackContiguousPreservesExistingContents) {
  HostPhysMem mem(64 * kMiB);
  mem.WriteU64(0x10008, 0x1122334455667788ULL);  // Materialize a sparse frame.
  mem.BackContiguous(0x10000, 4 * kPageSize);
  EXPECT_EQ(mem.ReadU64(0x10008), 0x1122334455667788ULL);  // Absorbed, not lost.
  EXPECT_EQ(mem.ReadU64(0x12000), 0u);  // Fresh pages read zero.
}

TEST(HostPhysMem, ContiguousSpanCoversRegionAndRejectsOverrun) {
  HostPhysMem mem(64 * kMiB);
  mem.BackContiguous(0x20000, 4 * kPageSize);
  uint8_t* base = mem.ContiguousSpan(0x20000, 4 * kPageSize);
  ASSERT_NE(base, nullptr);
  // The host pointer aliases guest-physical loads/stores across page bounds.
  base[kPageSize + 5] = 0xcd;
  std::vector<uint8_t> out(1);
  mem.Read(0x20000 + kPageSize + 5, out);
  EXPECT_EQ(out[0], 0xcd);
  uint8_t* off = mem.ContiguousSpan(0x20000 + kPageSize, kPageSize);
  EXPECT_EQ(off, base + kPageSize);
  EXPECT_EQ(mem.ContiguousSpan(0x20000 + kPageSize, 4 * kPageSize), nullptr);  // Overrun.
  EXPECT_EQ(mem.ContiguousSpan(0x50000, kPageSize), nullptr);  // Unbacked.
}

// ---- Backing on first write (the frame table) ----

TEST(HostPhysMem, AllocatedButUnwrittenFramesStayUnbacked) {
  HostPhysMem mem(64 * kMiB);
  FrameAllocator alloc(0x100000, 16 * kMiB);
  auto single = alloc.Alloc(mem);
  auto heap = alloc.AllocContiguous(mem, 2048);  // An 8 MiB process heap.
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ(mem.resident_frames(), 0u);
  EXPECT_EQ(mem.ReadU64(*single), 0u);
  EXPECT_EQ(mem.ReadU64(*heap + 2047 * kPageSize + 8), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);  // Reads never back a frame.
  mem.WriteU8(*heap + 5 * kPageSize, 1);
  EXPECT_EQ(mem.resident_frames(), 1u);
}

TEST(HostPhysMem, WrittenFreedAndReallocatedFrameReadsZero) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, kPageSize);  // One frame: reuse is forced.
  auto frame = alloc.Alloc(mem);
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> dirty(kPageSize, 0x5a);
  mem.Write(*frame, dirty);
  alloc.Free(*frame);
  auto again = alloc.Alloc(mem);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *frame);
  std::vector<uint8_t> out(kPageSize, 0xff);
  mem.Read(*again, out);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.resident_frames(), 1u);  // Re-zeroed in place, not re-backed.
}

// Host threads simulating different cores may be the first to write a frame
// at the same time. Every write must land, and each frame be backed once.
TEST(HostPhysMem, ConcurrentFirstWritesAllLand) {
  HostPhysMem mem(64 * kMiB);
  constexpr int kThreads = 4;
  constexpr uint64_t kFrames = 1024;  // Two leaves, every frame shared.
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&mem, t] {
      for (uint64_t f = 0; f < kFrames; ++f) {
        mem.WriteU64(f * kPageSize + 8 * static_cast<uint64_t>(t), f * kThreads + t + 1);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(mem.resident_frames(), kFrames);
  for (uint64_t f = 0; f < kFrames; ++f) {
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(mem.ReadU64(f * kPageSize + 8 * static_cast<uint64_t>(t)), f * kThreads + t + 1)
          << "frame " << f << " thread " << t;
    }
  }
}

TEST(HostPhysMem, BackContiguousOverMixedBackedAndUnbackedFrames) {
  HostPhysMem mem(64 * kMiB);
  // Frames 0 and 2 of the range are backed singly, 1 and 3 are not, and
  // frame 4 sits in an older region the new one partly overlaps.
  mem.BackContiguous(0x40000 + 4 * kPageSize, 2 * kPageSize);
  mem.WriteU64(0x40000 + 16, 0x1111);
  mem.WriteU64(0x40000 + 2 * kPageSize + 24, 0x2222);
  mem.WriteU64(0x40000 + 4 * kPageSize + 32, 0x4444);
  mem.WriteU64(0x40000 + 5 * kPageSize + 40, 0x5555);
  const size_t resident = mem.resident_frames();
  EXPECT_EQ(resident, 4u);
  mem.BackContiguous(0x40000, 5 * kPageSize);
  EXPECT_EQ(mem.resident_frames(), resident + 2);  // Frames 1 and 3.
  EXPECT_EQ(mem.ReadU64(0x40000 + 16), 0x1111u);
  EXPECT_EQ(mem.ReadU64(0x40000 + kPageSize + 16), 0u);
  EXPECT_EQ(mem.ReadU64(0x40000 + 2 * kPageSize + 24), 0x2222u);
  EXPECT_EQ(mem.ReadU64(0x40000 + 3 * kPageSize + 24), 0u);
  EXPECT_EQ(mem.ReadU64(0x40000 + 4 * kPageSize + 32), 0x4444u);
  EXPECT_EQ(mem.ReadU64(0x40000 + 5 * kPageSize + 40), 0x5555u);
  // The new region is one span; the older one keeps only its tail frame.
  uint8_t* span = mem.ContiguousSpan(0x40000, 5 * kPageSize);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span[4 * kPageSize + 32], 0x44);
  EXPECT_EQ(mem.ContiguousSpan(0x40000 + 4 * kPageSize, 2 * kPageSize), nullptr);
  uint8_t* tail = mem.ContiguousSpan(0x40000 + 5 * kPageSize, kPageSize);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail[40], 0x55);
}

TEST(HostPhysMem, ContiguousSpanLookupAcrossManyRegions) {
  constexpr uint64_t kRegions = 16 * 1024;
  constexpr uint64_t kRegionPages = 2;
  HostPhysMem mem(256 * kMiB);
  // Regions of two frames with a one-frame gap between neighbours.
  const auto region_base = [](uint64_t r) { return r * (kRegionPages + 1) * kPageSize; };
  for (uint64_t r = 0; r < kRegions; ++r) {
    mem.BackContiguous(region_base(r), kRegionPages * kPageSize);
  }
  for (uint64_t r = 0; r < kRegions; r += 997) {
    const Hpa base = region_base(r);
    uint8_t* start = mem.ContiguousSpan(base, kRegionPages * kPageSize);
    ASSERT_NE(start, nullptr) << r;
    EXPECT_EQ(mem.ContiguousSpan(base + kPageSize + 100, 64), start + kPageSize + 100) << r;
    EXPECT_EQ(mem.ContiguousSpan(base + kPageSize, 2 * kPageSize), nullptr) << r;  // Overrun.
    EXPECT_EQ(mem.ContiguousSpan(base + kRegionPages * kPageSize, 8), nullptr) << r;  // Gap.
  }
  // Re-backing two neighbours and their gap as one region replaces both.
  const Hpa merged = region_base(100);
  mem.WriteU8(merged + 7, 0x77);
  mem.BackContiguous(merged, (2 * kRegionPages + 1) * kPageSize);
  uint8_t* span = mem.ContiguousSpan(merged, (2 * kRegionPages + 1) * kPageSize);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span[7], 0x77);
  EXPECT_EQ(mem.ContiguousSpan(region_base(101), kPageSize), span + region_base(101) - merged);
  EXPECT_NE(mem.ContiguousSpan(region_base(102), kPageSize), nullptr);  // Untouched neighbour.
  EXPECT_EQ(mem.ContiguousSpan(region_base(102) - 8, 16), nullptr);     // Straddles two regions.
}

// ---- Bulk-copy engine ----

class BulkCopyTest : public ::testing::Test {
 protected:
  BulkCopyTest()
      : machine_(MachineConfig{1, 2 * kGiB}), guest_frames_(16 * kMiB, 512 * kMiB) {
    auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
    SB_CHECK(as.ok());
    as_ = std::move(*as);
    SB_CHECK(as_->MapAnonymous(kSrcVa, kLen, PageFlags{}).ok());
    SB_CHECK(as_->MapAnonymous(kDstVa, kLen, PageFlags{}).ok());
    machine_.core(0).WriteCr3(as_->root_gpa(), 1, false);
  }

  static constexpr Gva kSrcVa = 0x400000;
  static constexpr Gva kDstVa = 0x600000;
  static constexpr uint64_t kLen = 64 * 1024;

  Machine machine_;
  FrameAllocator guest_frames_;
  std::unique_ptr<AddressSpace> as_;
};

TEST_F(BulkCopyTest, CopyVirtMovesBytesAcrossPages) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> pattern(10000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  // Unaligned start, crossing three pages.
  ASSERT_TRUE(core.WriteVirt(kSrcVa + 123, pattern).ok());
  ASSERT_TRUE(core.CopyVirt(kDstVa + 45, kSrcVa + 123, pattern.size()).ok());
  std::vector<uint8_t> out(pattern.size());
  ASSERT_TRUE(core.ReadVirt(kDstVa + 45, out).ok());
  EXPECT_EQ(out, pattern);
}

TEST_F(BulkCopyTest, CopyVirtCheaperThanReadPlusWrite) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> data(16 * 1024, 0xee);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, data).ok());
  // Warm both ranges and the TLB.
  ASSERT_TRUE(core.CopyVirt(kDstVa, kSrcVa, data.size()).ok());
  std::vector<uint8_t> bounce(data.size());
  ASSERT_TRUE(core.ReadVirt(kSrcVa, bounce).ok());
  ASSERT_TRUE(core.WriteVirt(kDstVa, bounce).ok());

  uint64_t start = core.cycles();
  ASSERT_TRUE(core.ReadVirt(kSrcVa, bounce).ok());
  ASSERT_TRUE(core.WriteVirt(kDstVa, bounce).ok());
  const uint64_t read_write = core.cycles() - start;

  start = core.cycles();
  ASSERT_TRUE(core.CopyVirt(kDstVa, kSrcVa, data.size()).ok());
  const uint64_t copy = core.cycles() - start;

  EXPECT_LT(copy, read_write);  // One startup, touches both streams once.
  EXPECT_GT(copy, 0u);
}

TEST_F(BulkCopyTest, SmallAccessesKeepSeedCosting) {
  Core& core = machine_.core(0);
  const uint64_t small = machine_.costs().bulk_min_bytes - 1;
  std::vector<uint8_t> data(small, 0x11);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, data).ok());  // Warm.
  std::vector<uint8_t> out(small);
  ASSERT_TRUE(core.ReadVirt(kSrcVa, out).ok());    // Warm.

  const uint64_t start = core.cycles();
  ASSERT_TRUE(core.ReadVirt(kSrcVa, out).ok());
  const uint64_t cost = core.cycles() - start;
  // Warm per-line charging, no streaming startup: lines * l1_hit.
  const uint64_t lines = (small + 63) / 64;
  EXPECT_EQ(cost, lines * machine_.costs().l1_hit);
}

TEST_F(BulkCopyTest, CopyVirtSgMatchesSequentialCopies) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> a(3000, 0xaa);
  std::vector<uint8_t> b(5000, 0xbb);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, a).ok());
  ASSERT_TRUE(core.WriteVirt(kSrcVa + 8192, b).ok());
  const Core::CopySeg segs[] = {
      {kDstVa, kSrcVa, a.size()},
      {kDstVa + 8192, kSrcVa + 8192, b.size()},
  };
  ASSERT_TRUE(core.CopyVirtSg(segs).ok());
  std::vector<uint8_t> out_a(a.size());
  std::vector<uint8_t> out_b(b.size());
  ASSERT_TRUE(core.ReadVirt(kDstVa, out_a).ok());
  ASSERT_TRUE(core.ReadVirt(kDstVa + 8192, out_b).ok());
  EXPECT_EQ(out_a, a);
  EXPECT_EQ(out_b, b);
}

TEST(Machine, IpiCountsPerCore) {
  Machine machine(MachineConfig{4, 1 * kGiB});
  machine.SendIpi(0, 2);
  machine.SendIpi(0, 3);
  EXPECT_EQ(machine.total_ipis(), 2u);
  EXPECT_EQ(machine.core(0).pmu().ipis_sent, 2u);
}

TEST(Machine, VmcallDispatchesToHandler) {
  Machine machine(MachineConfig{1, 1 * kGiB});
  machine.SetVmExitHandler([](Core&, const VmExitInfo& info) -> uint64_t {
    EXPECT_EQ(info.reason, VmExitReason::kVmcall);
    return info.qualification + info.arg1;
  });
  EXPECT_EQ(machine.core(0).Vmcall(40, 2), 42u);
  EXPECT_EQ(machine.total_vm_exits(), 1u);
}

}  // namespace
}  // namespace hw
