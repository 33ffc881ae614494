#include "src/hw/paging.h"

#include <algorithm>
#include <array>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {
namespace {

constexpr uint64_t kEntriesPerTable = 512;

int IndexAt(Gva va, int level) {
  return static_cast<int>((va >> (12 + 9 * (level - 1))) & 0x1ff);
}

uint64_t FlagsToPte(const PageFlags& flags) {
  uint64_t pte = kPtePresent;
  if (flags.writable) {
    pte |= kPteWrite;
  }
  if (flags.user) {
    pte |= kPteUser;
  }
  if (flags.global) {
    pte |= kPteGlobal;
  }
  if (!flags.executable) {
    pte |= kPteNoExec;
  }
  return pte;
}

}  // namespace

sb::StatusOr<std::unique_ptr<AddressSpace>> AddressSpace::Create(HostPhysMem& mem,
                                                                 FrameAllocator& frames,
                                                                 uint16_t pcid) {
  SB_ASSIGN_OR_RETURN(Hpa root, frames.Alloc(mem));
  return std::unique_ptr<AddressSpace>(new AddressSpace(mem, frames, root, pcid));
}

sb::StatusOr<Gpa> AddressSpace::EnsureTable(Gpa table, int index, bool user) {
  const Gpa entry_addr = table + static_cast<uint64_t>(index) * 8;
  uint64_t entry = mem_->ReadU64(entry_addr);
  if ((entry & kPtePresent) == 0) {
    SB_ASSIGN_OR_RETURN(Gpa child, frames_->Alloc(*mem_));
    entry = (child & kPteFrameMask) | kPtePresent | kPteWrite | (user ? kPteUser : 0);
    mem_->WriteU64(entry_addr, entry);
  } else if ((entry & kPteLarge) != 0) {
    return sb::AlreadyExists("large page in the way");
  }
  return entry & kPteFrameMask;
}

sb::StatusOr<Gpa> AddressSpace::Descend(Gva va, int leaf_level, bool user) {
  Gpa table = root_;
  for (int level = 4; level > leaf_level; --level) {
    SB_ASSIGN_OR_RETURN(table, EnsureTable(table, IndexAt(va, level), user));
  }
  return table;
}

sb::Status AddressSpace::Map(Gva va, Gpa pa, uint64_t page_size, const PageFlags& flags) {
  if (page_size == sb::kPageSize) {
    return MapRange(va, pa, page_size, flags);
  }
  if (page_size != sb::kHugePage2M) {
    return sb::InvalidArgument("unsupported guest page size");
  }
  if ((va & (page_size - 1)) != 0 || (pa & (page_size - 1)) != 0) {
    return sb::InvalidArgument("guest mapping not aligned");
  }
  SB_ASSIGN_OR_RETURN(Gpa table, Descend(va, /*leaf_level=*/2, flags.user));
  const Gpa leaf_addr = table + static_cast<uint64_t>(IndexAt(va, 2)) * 8;
  if ((mem_->ReadU64(leaf_addr) & kPtePresent) != 0) {
    return sb::AlreadyExists("guest VA already mapped");
  }
  mem_->WriteU64(leaf_addr, (pa & kPteFrameMask) | FlagsToPte(flags) | kPteLarge);
  return sb::OkStatus();
}

sb::StatusOr<Gpa> AddressSpace::MapAnonymous(Gva va, uint64_t len, const PageFlags& flags) {
  if (!sb::IsPageAligned(va) || len == 0) {
    return sb::InvalidArgument("MapAnonymous requires aligned va and nonzero len");
  }
  const uint64_t pages = sb::PageUp(len) / sb::kPageSize;
  SB_ASSIGN_OR_RETURN(Gpa first, frames_->AllocContiguous(*mem_, pages));
  SB_RETURN_IF_ERROR(MapRange(va, first, pages * sb::kPageSize, flags));
  return first;
}

sb::Status AddressSpace::MapRange(Gva va, Gpa pa, uint64_t len, const PageFlags& flags) {
  if (!sb::IsPageAligned(va) || !sb::IsPageAligned(pa)) {
    return sb::InvalidArgument("guest mapping not aligned");
  }
  // One descent and one read-fill-write of the PTE run per leaf table; the
  // tables are allocated in the order a page-by-page Map would allocate them.
  const uint64_t pte_flags = FlagsToPte(flags);
  const uint64_t pages = sb::PageUp(len) / sb::kPageSize;
  std::array<uint64_t, kEntriesPerTable> run;
  for (uint64_t done = 0; done < pages;) {
    const Gva cur = va + done * sb::kPageSize;
    const int first = IndexAt(cur, 1);
    const uint64_t n = std::min<uint64_t>(pages - done, kEntriesPerTable - first);
    SB_ASSIGN_OR_RETURN(Gpa table, Descend(cur, /*leaf_level=*/1, flags.user));
    const Gpa run_addr = table + static_cast<uint64_t>(first) * 8;
    const std::span<uint8_t> bytes(reinterpret_cast<uint8_t*>(run.data()), n * 8);
    mem_->Read(run_addr, bytes);
    uint64_t filled = 0;
    for (; filled < n && (run[filled] & kPtePresent) == 0; ++filled) {
      run[filled] = ((pa + (done + filled) * sb::kPageSize) & kPteFrameMask) | pte_flags;
    }
    if (filled > 0) {
      mem_->Write(run_addr, bytes.first(filled * 8));
    }
    if (filled < n) {
      return sb::AlreadyExists("guest VA already mapped");
    }
    done += n;
  }
  return sb::OkStatus();
}

sb::Status AddressSpace::Unmap(Gva va) {
  Gpa table = root_;
  for (int level = 4; level > 1; --level) {
    const Gpa entry_addr = table + static_cast<uint64_t>(IndexAt(va, level)) * 8;
    const uint64_t entry = mem_->ReadU64(entry_addr);
    if ((entry & kPtePresent) == 0) {
      return sb::NotFound("VA not mapped");
    }
    if ((entry & kPteLarge) != 0) {
      mem_->WriteU64(entry_addr, 0);
      return sb::OkStatus();
    }
    table = entry & kPteFrameMask;
  }
  const Gpa leaf_addr = table + static_cast<uint64_t>(IndexAt(va, 1)) * 8;
  if ((mem_->ReadU64(leaf_addr) & kPtePresent) == 0) {
    return sb::NotFound("VA not mapped");
  }
  mem_->WriteU64(leaf_addr, 0);
  return sb::OkStatus();
}

sb::Status AddressSpace::ShareUpperHalf(const AddressSpace& other) {
  for (int index = 256; index < 512; ++index) {
    const uint64_t entry = mem_->ReadU64(other.root_ + static_cast<uint64_t>(index) * 8);
    if ((entry & kPtePresent) != 0) {
      mem_->WriteU64(root_ + static_cast<uint64_t>(index) * 8, entry);
    }
  }
  return sb::OkStatus();
}

GuestWalk AddressSpace::WalkVa(Gva va) const {
  GuestWalk result;
  Gpa table = root_;
  for (int level = 4; level >= 1; --level) {
    const uint64_t entry = mem_->ReadU64(table + static_cast<uint64_t>(IndexAt(va, level)) * 8);
    if ((entry & kPtePresent) == 0) {
      return result;
    }
    const bool leaf = level == 1 || (entry & kPteLarge) != 0;
    if (leaf) {
      const uint64_t page_size = level == 1 ? sb::kPageSize : (level == 2 ? sb::kHugePage2M : sb::kHugePage1G);
      result.ok = true;
      result.pte = entry;
      result.page_shift = static_cast<uint8_t>(12 + 9 * (level - 1));
      result.gpa = (entry & kPteFrameMask & ~(page_size - 1)) | (va & (page_size - 1));
      return result;
    }
    table = entry & kPteFrameMask;
  }
  return result;
}

}  // namespace hw
