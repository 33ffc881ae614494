// Host physical memory and frame allocation.
//
// HostPhysMem is the machine's RAM: a sparse array of 4 KiB frames, each
// backed by host memory on its first write. FrameAllocator hands out frames
// from a host-physical range; the Rootkernel and the Subkernel each own one
// (disjoint) range, which is exactly the paper's split of "a small portion
// of physical memory (100 MB) reserved for the Rootkernel" with the rest
// owned by the microkernel.

#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hw/addr.h"

namespace hw {

class HostPhysMem {
 public:
  explicit HostPhysMem(uint64_t size_bytes);
  ~HostPhysMem();
  HostPhysMem(const HostPhysMem&) = delete;
  HostPhysMem& operator=(const HostPhysMem&) = delete;

  uint64_t size() const { return size_; }
  bool Contains(Hpa addr, uint64_t len = 1) const { return addr + len <= size_ && addr + len >= addr; }

  // Raw byte access. Crossing frame boundaries is handled. Out-of-bounds
  // access is a CHECK failure: the simulator never lets a guest form an HPA
  // outside RAM (the EPT walker rejects it first).
  void Read(Hpa addr, std::span<uint8_t> out) const;
  void Write(Hpa addr, std::span<const uint8_t> in);

  // Word access. A word inside one frame is one frame lookup and a copy; one
  // that straddles two frames takes the Read/Write path. A read never backs
  // a frame.
  uint64_t ReadU64(Hpa addr) const;
  void WriteU64(Hpa addr, uint64_t value);
  uint32_t ReadU32(Hpa addr) const;
  void WriteU32(Hpa addr, uint32_t value);
  uint8_t ReadU8(Hpa addr) const;
  void WriteU8(Hpa addr, uint8_t value);

  // Makes the frame read as zero: a backed frame is re-zeroed in place; a
  // frame never written stays unbacked (it already reads as zero).
  void ZeroFrame(Hpa frame_base);

  // Backs the page-aligned range [base, base + len) with one host-contiguous
  // allocation so the guest range can be exposed to host code as a single
  // std::span (zero-copy message views). Contents of already-backed frames
  // are preserved; the range reads back unchanged. Idempotent when the range
  // is already inside one backing region.
  void BackContiguous(Hpa base, uint64_t len);

  // Host pointer for [addr, addr + len) when the whole range lies inside one
  // BackContiguous region; nullptr otherwise (single frames are never
  // host-contiguous across page boundaries). O(log regions).
  uint8_t* ContiguousSpan(Hpa addr, uint64_t len);

  // Number of frames backed by host memory (for tests / memory accounting).
  // A frame is backed on its first write, or when a BackContiguous region
  // covers it; allocating or zeroing a frame does not back it.
  size_t resident_frames() const { return resident_.load(std::memory_order_relaxed); }

 private:
  // The frame table is indexed by frame number, in leaves of kLeafFrames
  // slots allocated on first write, so a sparsely used 16 GiB machine costs
  // a 64 KiB directory plus 8 KiB per touched 2 MiB. Host threads that
  // simulate different cores may first-write frames at the same time, so a
  // leaf and a frame's backing are each published by one compare-and-swap;
  // the loser frees its copy and uses the winner's.
  static constexpr unsigned kLeafShift = 9;
  static constexpr uint64_t kLeafFrames = 1ULL << kLeafShift;
  struct Leaf {
    // nullptr: unbacked, reads as zero.
    std::array<std::atomic<uint8_t*>, kLeafFrames> data{};
    // Single-frame backings (written only by the thread that published them).
    std::array<std::unique_ptr<uint8_t[]>, kLeafFrames> owned;
  };
  // A BackContiguous region: frames [first, first + num_frames) at `base`.
  struct ContigRegion {
    uint64_t num_frames;
    uint8_t* base;
  };

  uint8_t* FrameFor(Hpa addr);         // Backs the frame on first write.
  uint8_t* BackingOf(Hpa addr) const;  // nullptr when unbacked.

  Leaf& LeafFor(uint64_t frame);  // Allocates the leaf on first use.

  template <typename T>
  T LoadWord(Hpa addr) const;
  template <typename T>
  void StoreWord(Hpa addr, T value);

  uint64_t size_;
  std::vector<std::atomic<Leaf*>> leaves_;  // Owned; freed by the destructor.
  std::atomic<size_t> resident_{0};
  // First frame -> region. Regions are disjoint: a newer region trims the
  // records of the ones it overlaps, so a lookup is one ordered search.
  std::map<uint64_t, ContigRegion> regions_;
  std::vector<std::unique_ptr<uint8_t[]>> region_storage_;
};

// Bump-plus-freelist frame allocator over [base, base + size).
class FrameAllocator {
 public:
  FrameAllocator(Hpa base, uint64_t size_bytes);

  // Allocates one zero-filled 4 KiB frame.
  sb::StatusOr<Hpa> Alloc(HostPhysMem& mem);

  // Allocates `count` physically contiguous frames; returns the first HPA.
  sb::StatusOr<Hpa> AllocContiguous(HostPhysMem& mem, uint64_t count);

  void Free(Hpa frame);

  Hpa base() const { return base_; }
  uint64_t size() const { return size_; }
  uint64_t allocated_frames() const { return allocated_; }
  uint64_t capacity_frames() const { return size_ / sb::kPageSize; }

 private:
  Hpa base_;
  uint64_t size_;
  Hpa next_;
  uint64_t allocated_ = 0;
  std::vector<Hpa> free_list_;
};

}  // namespace hw

#endif  // SRC_HW_PHYS_MEM_H_
