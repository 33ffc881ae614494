#include "src/hw/ept.h"

#include "src/base/logging.h"
#include "src/base/units.h"

namespace hw {
namespace {

constexpr uint64_t kPfnMask = 0x000ffffffffff000ULL;
constexpr uint64_t kLargeBit = 1ULL << 7;

int IndexAt(Gpa gpa, int level) {
  return static_cast<int>((gpa >> (12 + 9 * (level - 1))) & 0x1ff);
}

uint64_t PageSizeForLevel(int level) {
  switch (level) {
    case 1:
      return sb::kPageSize;
    case 2:
      return sb::kHugePage2M;
    case 3:
      return sb::kHugePage1G;
    default:
      SB_CHECK(false) << "no page size for level " << level;
      return 0;
  }
}

}  // namespace

sb::StatusOr<std::unique_ptr<Ept>> Ept::Create(HostPhysMem& mem, FrameAllocator& frames) {
  SB_ASSIGN_OR_RETURN(Hpa root, frames.Alloc(mem));
  return std::unique_ptr<Ept>(new Ept(mem, frames, root));
}

sb::StatusOr<std::unique_ptr<Ept>> Ept::ShallowCopy() const {
  SB_ASSIGN_OR_RETURN(Hpa new_root, frames_->Alloc(*mem_));
  uint8_t buf[sb::kPageSize];
  mem_->Read(root_, buf);
  mem_->Write(new_root, buf);
  return std::unique_ptr<Ept>(new Ept(*mem_, *frames_, new_root));
}

uint64_t Ept::MakeEntry(Hpa target, uint8_t perms, bool large) {
  return (target & kPfnMask) | (perms & kEptRwx) | (large ? kLargeBit : 0);
}

sb::Status Ept::Map(Gpa gpa, Hpa hpa, uint64_t page_size, uint8_t perms) {
  int leaf_level;
  switch (page_size) {
    case sb::kPageSize:
      leaf_level = 1;
      break;
    case sb::kHugePage2M:
      leaf_level = 2;
      break;
    case sb::kHugePage1G:
      leaf_level = 3;
      break;
    default:
      return sb::InvalidArgument("unsupported EPT page size");
  }
  if ((gpa & (page_size - 1)) != 0 || (hpa & (page_size - 1)) != 0) {
    return sb::InvalidArgument("EPT mapping not aligned to page size");
  }

  Hpa table = root_;
  for (int level = 4; level > leaf_level; --level) {
    const Hpa entry_addr = table + static_cast<uint64_t>(IndexAt(gpa, level)) * 8;
    uint64_t entry = mem_->ReadU64(entry_addr);
    if ((entry & kEptRwx) == 0) {
      SB_ASSIGN_OR_RETURN(Hpa child, frames_->Alloc(*mem_));
      private_tables_.insert(child);
      entry = MakeEntry(child, kEptRwx, /*large=*/false);
      mem_->WriteU64(entry_addr, entry);
    } else if ((entry & kLargeBit) != 0) {
      return sb::AlreadyExists("EPT large-page leaf in the way; unmap first");
    }
    table = entry & kPfnMask;
  }

  const Hpa leaf_addr = table + static_cast<uint64_t>(IndexAt(gpa, leaf_level)) * 8;
  if ((mem_->ReadU64(leaf_addr) & kEptRwx) != 0) {
    return sb::AlreadyExists("EPT GPA already mapped");
  }
  mem_->WriteU64(leaf_addr, MakeEntry(hpa, perms, leaf_level > 1));
  return sb::OkStatus();
}

sb::StatusOr<Hpa> Ept::PrivatizeChild(Hpa table, int index, int level) {
  const Hpa entry_addr = table + static_cast<uint64_t>(index) * 8;
  const uint64_t entry = mem_->ReadU64(entry_addr);
  if ((entry & kEptRwx) == 0) {
    return sb::NotFound("EPT entry not present during path clone");
  }

  if ((entry & kLargeBit) != 0) {
    // Split the large leaf into a private next-level table covering the same
    // range at the next-smaller page size.
    SB_CHECK(level == 3 || level == 2) << "large bit at invalid level";
    SB_ASSIGN_OR_RETURN(Hpa child, frames_->Alloc(*mem_));
    private_tables_.insert(child);
    const Hpa base_target = entry & kPfnMask;
    const uint8_t perms = entry & kEptRwx;
    const uint64_t child_page = PageSizeForLevel(level - 1);
    uint64_t split[512];
    for (uint64_t i = 0; i < 512; ++i) {
      split[i] = MakeEntry(base_target + i * child_page, perms, level - 1 > 1);
    }
    mem_->Write(child, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(split),
                                                sizeof(split)));
    mem_->WriteU64(entry_addr, MakeEntry(child, kEptRwx, /*large=*/false));
    return child;
  }

  const Hpa child = entry & kPfnMask;
  if (private_tables_.contains(child)) {
    return child;
  }
  // Clone the shared table.
  SB_ASSIGN_OR_RETURN(Hpa clone, frames_->Alloc(*mem_));
  private_tables_.insert(clone);
  uint8_t buf[sb::kPageSize];
  mem_->Read(child, buf);
  mem_->Write(clone, buf);
  mem_->WriteU64(entry_addr, MakeEntry(clone, entry & kEptRwx, /*large=*/false));
  return clone;
}

sb::Status Ept::RemapGpaPage(Gpa page_gpa, Hpa new_target) {
  if (!sb::IsPageAligned(page_gpa) || !sb::IsPageAligned(new_target)) {
    return sb::InvalidArgument("RemapGpaPage requires 4K alignment");
  }
  Hpa table = root_;
  for (int level = 4; level > 1; --level) {
    SB_ASSIGN_OR_RETURN(table, PrivatizeChild(table, IndexAt(page_gpa, level), level));
  }
  const Hpa leaf_addr = table + static_cast<uint64_t>(IndexAt(page_gpa, 1)) * 8;
  mem_->WriteU64(leaf_addr, MakeEntry(new_target, kEptRwx, /*large=*/false));
  return sb::OkStatus();
}

sb::Status Ept::SetGpaPageExec(Gpa page_gpa, bool exec) {
  if (!sb::IsPageAligned(page_gpa)) {
    return sb::InvalidArgument("SetGpaPageExec requires 4K alignment");
  }
  Hpa table = root_;
  for (int level = 4; level > 1; --level) {
    SB_ASSIGN_OR_RETURN(table, PrivatizeChild(table, IndexAt(page_gpa, level), level));
  }
  const Hpa leaf_addr = table + static_cast<uint64_t>(IndexAt(page_gpa, 1)) * 8;
  const uint64_t entry = mem_->ReadU64(leaf_addr);
  if ((entry & kEptRwx) == 0) {
    return sb::NotFound("SetGpaPageExec on an unmapped GPA");
  }
  uint8_t perms = entry & kEptRwx;
  perms = exec ? (perms | kEptExec) : (perms & ~kEptExec);
  mem_->WriteU64(leaf_addr, MakeEntry(entry & kPfnMask, perms, /*large=*/false));
  return sb::OkStatus();
}

sb::Status Ept::UnmapGpaPage(Gpa page_gpa) {
  if (!sb::IsPageAligned(page_gpa)) {
    return sb::InvalidArgument("UnmapGpaPage requires 4K alignment");
  }
  Hpa table = root_;
  for (int level = 4; level > 1; --level) {
    SB_ASSIGN_OR_RETURN(table, PrivatizeChild(table, IndexAt(page_gpa, level), level));
  }
  mem_->WriteU64(table + static_cast<uint64_t>(IndexAt(page_gpa, 1)) * 8, 0);
  return sb::OkStatus();
}

EptWalk Ept::Walk(Gpa gpa, uint8_t need) const {
  EptWalk result;
  Hpa table = root_;
  for (int level = 4; level >= 1; --level) {
    const Hpa entry_addr = table + static_cast<uint64_t>(IndexAt(gpa, level)) * 8;
    result.table_reads[result.num_table_reads++] = entry_addr;
    const uint64_t entry = mem_->ReadU64(entry_addr);
    const uint8_t perms = entry & kEptRwx;
    if (perms == 0 || (perms & need) != need) {
      result.fault_gpa = gpa;
      return result;  // EPT violation.
    }
    const bool leaf = level == 1 || (entry & kLargeBit) != 0;
    if (leaf) {
      const uint64_t page_size = PageSizeForLevel(level);
      result.ok = true;
      result.perms = perms;
      result.page_shift = static_cast<uint8_t>(12 + 9 * (level - 1));
      result.hpa = (entry & kPfnMask & ~(page_size - 1)) | (gpa & (page_size - 1));
      return result;
    }
    table = entry & kPfnMask;
  }
  result.fault_gpa = gpa;
  return result;
}

}  // namespace hw
