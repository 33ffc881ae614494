// Guest page tables: x86-64 4-level paging (GVA -> GPA).
//
// AddressSpace is the *builder* the Subkernel uses to construct and edit a
// process's page tables inside guest-physical memory. The authoritative
// translation at run time is performed by hw::Core, which walks the raw table
// bytes through the active EPT — that raw walk is what makes SkyBridge's
// CR3-GPA remapping behave exactly as on hardware.
//
// PTE layout (subset of x86-64): bit 0 present, bit 1 writable, bit 2 user,
// bit 7 page-size (large leaf), bit 8 global, bits 51:12 frame number.

#ifndef SRC_HW_PAGING_H_
#define SRC_HW_PAGING_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/hw/addr.h"
#include "src/hw/phys_mem.h"

namespace hw {

inline constexpr uint64_t kPtePresent = 1ULL << 0;
inline constexpr uint64_t kPteWrite = 1ULL << 1;
inline constexpr uint64_t kPteUser = 1ULL << 2;
inline constexpr uint64_t kPteLarge = 1ULL << 7;
inline constexpr uint64_t kPteGlobal = 1ULL << 8;
inline constexpr uint64_t kPteNoExec = 1ULL << 63;
inline constexpr uint64_t kPteFrameMask = 0x000ffffffffff000ULL;

struct PageFlags {
  bool writable = true;
  bool user = true;
  bool global = false;
  bool executable = true;
};

// Structural guest-walk result (builder-side; no EPT, no cost accounting).
struct GuestWalk {
  bool ok = false;
  Gpa gpa = 0;
  uint64_t pte = 0;
  uint8_t page_shift = 12;
};

class AddressSpace {
 public:
  // `frames` allocates guest-physical frames for the table pages. Under the
  // Rootkernel's identity base EPT, GPA == HPA for this pool, so the builder
  // writes table bytes into host memory directly.
  static sb::StatusOr<std::unique_ptr<AddressSpace>> Create(HostPhysMem& mem,
                                                            FrameAllocator& frames,
                                                            uint16_t pcid);

  // Guest-physical address of the PML4 (the CR3 value, sans flags).
  Gpa root_gpa() const { return root_; }
  uint16_t pcid() const { return pcid_; }

  // Maps [va, va+page_size) -> [pa, ...); page_size is 4K or 2M. A 4K page
  // is a one-page MapRange.
  sb::Status Map(Gva va, Gpa pa, uint64_t page_size, const PageFlags& flags);

  // Maps a byte range with 4K pages, allocating backing frames from `frames`.
  // Returns the GPA of the first backing frame.
  sb::StatusOr<Gpa> MapAnonymous(Gva va, uint64_t len, const PageFlags& flags);

  // Maps an existing physical range (e.g. a shared buffer) at `va` with 4K
  // pages; a `len` that is not a page multiple rounds up. Writes each leaf
  // table's run of PTEs at once. If a page is already mapped (or a large page
  // is in the way), the pages before it stay mapped and AlreadyExists is
  // returned.
  sb::Status MapRange(Gva va, Gpa pa, uint64_t len, const PageFlags& flags);

  sb::Status Unmap(Gva va);

  // Copies the upper-half (kernel) PML4 entries from `other`, sharing its
  // kernel subtree. Used to stitch the kernel mapping into every process.
  sb::Status ShareUpperHalf(const AddressSpace& other);

  GuestWalk WalkVa(Gva va) const;

  HostPhysMem& mem() { return *mem_; }
  FrameAllocator& frames() { return *frames_; }

 private:
  AddressSpace(HostPhysMem& mem, FrameAllocator& frames, Gpa root, uint16_t pcid)
      : mem_(&mem), frames_(&frames), root_(root), pcid_(pcid) {}

  sb::StatusOr<Gpa> EnsureTable(Gpa table, int index, bool user);
  // The table at `leaf_level` covering `va`, allocating missing tables on the
  // way down from the PML4.
  sb::StatusOr<Gpa> Descend(Gva va, int leaf_level, bool user);

  HostPhysMem* mem_;
  FrameAllocator* frames_;
  Gpa root_;
  uint16_t pcid_;
};

}  // namespace hw

#endif  // SRC_HW_PAGING_H_
