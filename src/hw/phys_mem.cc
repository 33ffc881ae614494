#include "src/hw/phys_mem.h"

#include "src/base/logging.h"

namespace hw {

HostPhysMem::HostPhysMem(uint64_t size_bytes)
    : size_(size_bytes),
      leaves_(((size_bytes >> sb::kPageShift) + kLeafFrames - 1) >> kLeafShift) {
  SB_CHECK(sb::IsPageAligned(size_bytes)) << "RAM size must be page aligned";
}

HostPhysMem::~HostPhysMem() {
  for (std::atomic<Leaf*>& leaf : leaves_) {
    delete leaf.load(std::memory_order_relaxed);
  }
}

HostPhysMem::Leaf& HostPhysMem::LeafFor(uint64_t frame) {
  std::atomic<Leaf*>& slot = leaves_[frame >> kLeafShift];
  Leaf* leaf = slot.load(std::memory_order_acquire);
  if (leaf == nullptr) {
    auto fresh = std::make_unique<Leaf>();
    if (slot.compare_exchange_strong(leaf, fresh.get(), std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      leaf = fresh.release();
    }
  }
  return *leaf;
}

uint8_t* HostPhysMem::FrameFor(Hpa addr) {
  SB_CHECK(Contains(addr)) << "HPA out of RAM: 0x" << std::hex << addr;
  const uint64_t frame = addr >> sb::kPageShift;
  Leaf& leaf = LeafFor(frame);
  const uint64_t slot = frame & (kLeafFrames - 1);
  uint8_t* data = leaf.data[slot].load(std::memory_order_acquire);
  if (data == nullptr) {
    auto fresh = std::make_unique<uint8_t[]>(sb::kPageSize);  // Zero-filled.
    if (leaf.data[slot].compare_exchange_strong(data, fresh.get(), std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      data = fresh.get();
      leaf.owned[slot] = std::move(fresh);
      resident_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return data;
}

uint8_t* HostPhysMem::BackingOf(Hpa addr) const {
  SB_CHECK(Contains(addr)) << "HPA out of RAM: 0x" << std::hex << addr;
  const uint64_t frame = addr >> sb::kPageShift;
  const Leaf* leaf = leaves_[frame >> kLeafShift].load(std::memory_order_acquire);
  return leaf == nullptr
             ? nullptr
             : leaf->data[frame & (kLeafFrames - 1)].load(std::memory_order_acquire);
}

void HostPhysMem::BackContiguous(Hpa base, uint64_t len) {
  SB_CHECK(sb::IsPageAligned(base)) << "BackContiguous base must be page aligned";
  SB_CHECK(Contains(base, len));
  const uint64_t first = base >> sb::kPageShift;
  const uint64_t count = sb::PageUp(len) >> sb::kPageShift;
  if (ContiguousSpan(base, len) != nullptr) {
    return;  // Already one region.
  }
  uint8_t* storage = region_storage_
                         .emplace_back(std::make_unique<uint8_t[]>(count * sb::kPageSize))
                         .get();
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t frame = first + i;
    Leaf& leaf = LeafFor(frame);
    const uint64_t slot = frame & (kLeafFrames - 1);
    uint8_t* dst = storage + i * sb::kPageSize;
    // Preserve whatever the frame already held, then retire its old backing
    // so the region's storage is authoritative. (Backing a region is set-up
    // work: nothing else touches these frames meanwhile.)
    if (const uint8_t* old = leaf.data[slot].load(std::memory_order_acquire); old != nullptr) {
      std::memcpy(dst, old, sb::kPageSize);
    } else {
      resident_.fetch_add(1, std::memory_order_relaxed);
    }
    leaf.data[slot].store(dst, std::memory_order_release);
    leaf.owned[slot].reset();
  }
  // Trim every older region the new one overlaps down to its parts outside
  // [first, end); those frames still live in the older storage.
  const uint64_t end = first + count;
  auto it = regions_.upper_bound(first);
  if (it != regions_.begin()) {
    --it;
  }
  while (it != regions_.end() && it->first < end) {
    const uint64_t r_first = it->first;
    const uint64_t r_end = r_first + it->second.num_frames;
    if (r_end <= first) {
      ++it;
      continue;
    }
    uint8_t* r_base = it->second.base;
    it = regions_.erase(it);
    if (r_first < first) {
      regions_.emplace(r_first, ContigRegion{first - r_first, r_base});
    }
    if (r_end > end) {
      regions_.emplace(end, ContigRegion{r_end - end, r_base + (end - r_first) * sb::kPageSize});
    }
  }
  regions_[first] = ContigRegion{count, storage};
}

uint8_t* HostPhysMem::ContiguousSpan(Hpa addr, uint64_t len) {
  if (len == 0 || !Contains(addr, len)) {
    return nullptr;
  }
  const uint64_t first = addr >> sb::kPageShift;
  auto it = regions_.upper_bound(first);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const Hpa region_base = it->first << sb::kPageShift;
  const Hpa region_end = (it->first + it->second.num_frames) << sb::kPageShift;
  if (addr + len > region_end) {
    return nullptr;  // Past the end, or the first frame is not in a region.
  }
  return it->second.base + (addr - region_base);
}

void HostPhysMem::Read(Hpa addr, std::span<uint8_t> out) const {
  SB_CHECK(Contains(addr, out.size()));
  size_t done = 0;
  while (done < out.size()) {
    const Hpa cur = addr + done;
    const uint64_t offset = cur & (sb::kPageSize - 1);
    const size_t chunk = std::min<size_t>(out.size() - done, sb::kPageSize - offset);
    const uint8_t* frame = BackingOf(cur);
    if (frame == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, frame + offset, chunk);
    }
    done += chunk;
  }
}

void HostPhysMem::Write(Hpa addr, std::span<const uint8_t> in) {
  SB_CHECK(Contains(addr, in.size()));
  size_t done = 0;
  while (done < in.size()) {
    const Hpa cur = addr + done;
    const uint64_t offset = cur & (sb::kPageSize - 1);
    const size_t chunk = std::min<size_t>(in.size() - done, sb::kPageSize - offset);
    std::memcpy(FrameFor(cur) + offset, in.data() + done, chunk);
    done += chunk;
  }
}

uint64_t HostPhysMem::ReadU64(Hpa addr) const {
  uint64_t v = 0;
  Read(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&v), sizeof(v)));
  return v;
}

void HostPhysMem::WriteU64(Hpa addr, uint64_t value) {
  Write(addr, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
}

uint32_t HostPhysMem::ReadU32(Hpa addr) const {
  uint32_t v = 0;
  Read(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&v), sizeof(v)));
  return v;
}

void HostPhysMem::WriteU32(Hpa addr, uint32_t value) {
  Write(addr, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
}

uint8_t HostPhysMem::ReadU8(Hpa addr) const {
  uint8_t v = 0;
  Read(addr, std::span<uint8_t>(&v, 1));
  return v;
}

void HostPhysMem::WriteU8(Hpa addr, uint8_t value) { Write(addr, std::span<const uint8_t>(&value, 1)); }

void HostPhysMem::ZeroFrame(Hpa frame_base) {
  SB_CHECK(sb::IsPageAligned(frame_base));
  if (uint8_t* frame = BackingOf(frame_base); frame != nullptr) {
    std::memset(frame, 0, sb::kPageSize);
  }
}

FrameAllocator::FrameAllocator(Hpa base, uint64_t size_bytes)
    : base_(base), size_(size_bytes), next_(base) {
  SB_CHECK(sb::IsPageAligned(base));
  SB_CHECK(sb::IsPageAligned(size_bytes));
}

sb::StatusOr<Hpa> FrameAllocator::Alloc(HostPhysMem& mem) {
  if (!free_list_.empty()) {
    const Hpa frame = free_list_.back();
    free_list_.pop_back();
    mem.ZeroFrame(frame);
    ++allocated_;
    return frame;
  }
  if (next_ + sb::kPageSize > base_ + size_) {
    return sb::ResourceExhausted("frame allocator exhausted");
  }
  const Hpa frame = next_;
  next_ += sb::kPageSize;
  mem.ZeroFrame(frame);
  ++allocated_;
  return frame;
}

sb::StatusOr<Hpa> FrameAllocator::AllocContiguous(HostPhysMem& mem, uint64_t count) {
  if (next_ + count * sb::kPageSize > base_ + size_) {
    return sb::ResourceExhausted("frame allocator exhausted (contiguous)");
  }
  const Hpa first = next_;
  next_ += count * sb::kPageSize;
  for (uint64_t i = 0; i < count; ++i) {
    mem.ZeroFrame(first + i * sb::kPageSize);
  }
  allocated_ += count;
  return first;
}

void FrameAllocator::Free(Hpa frame) {
  SB_CHECK(sb::IsPageAligned(frame));
  SB_CHECK(frame >= base_ && frame < base_ + size_);
  SB_CHECK(allocated_ > 0);
  --allocated_;
  free_list_.push_back(frame);
}

}  // namespace hw
