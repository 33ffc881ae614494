#include "src/hw/tlb.h"

#include <algorithm>
#include <bit>

#include "src/base/logging.h"

namespace hw {

Tlb::Tlb(size_t capacity)
    : capacity_(capacity),
      nodes_(capacity),
      // At most a quarter full, so a probe usually ends at its first slot.
      index_(std::bit_ceil(4 * std::max<size_t>(capacity, 1)), 0),
      index_mask_(index_.size() - 1) {
  SB_CHECK(capacity > 0 && capacity < kNil);
  FlushAll();
}

int Tlb::SizeClass(uint8_t page_shift) {
  switch (page_shift) {
    case 12:
      return 0;
    case 21:
      return 1;
    case 30:
      return 2;
    default:
      return 3;
  }
}

uint32_t Tlb::Find(const TlbKey& key) const {
  for (size_t i = TlbKeyHash{}(key) & index_mask_;; i = (i + 1) & index_mask_) {
    const uint32_t slot = index_[i];
    if (slot == 0) {
      return kNil;
    }
    if (nodes_[slot - 1].key == key) {
      return slot - 1;
    }
  }
}

void Tlb::Unlink(uint32_t n) {
  Node& node = nodes_[n];
  (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
  (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
}

void Tlb::PushFront(uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNil;
  node.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
  head_ = n;
}

void Tlb::Touch(uint32_t n) {
  if (n != head_) {
    Unlink(n);
    PushFront(n);
  }
}

const TlbEntry* Tlb::Hit(uint32_t n, uint8_t shift, uint8_t* page_shift) {
  Touch(n);
  ++hits_;
  if (page_shift != nullptr) {
    *page_shift = shift;
  }
  return &nodes_[n].entry;
}

void Tlb::IndexErase(uint32_t n) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home slot.
  size_t hole = nodes_[n].home;
  while (index_[hole] != n + 1) {
    hole = (hole + 1) & index_mask_;
  }
  for (size_t i = (hole + 1) & index_mask_; index_[i] != 0; i = (i + 1) & index_mask_) {
    const size_t home = nodes_[index_[i] - 1].home;
    if (((i - home) & index_mask_) >= ((i - hole) & index_mask_)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = 0;
}

void Tlb::Remove(uint32_t n) {
  Node& node = nodes_[n];
  IndexErase(n);
  Unlink(n);
  const int cls = SizeClass(node.key.page_shift);
  --live_[cls];
  global_[cls] -= node.entry.global ? 1 : 0;
  node.next = free_;
  free_ = n;
  --size_;
}

template <typename Pred>
void Tlb::RemoveIf(Pred pred) {
  for (uint32_t n = head_; n != kNil;) {
    const uint32_t next = nodes_[n].next;
    if (pred(nodes_[n])) {
      Remove(n);
    }
    n = next;
  }
}

const TlbEntry* Tlb::Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
                            uint8_t* page_shift) {
  for (uint8_t shift : {uint8_t{12}, uint8_t{21}, uint8_t{30}}) {
    const int cls = SizeClass(shift);
    if (live_[cls] == 0) {
      continue;
    }
    uint32_t n = Find(TlbKey{gva >> shift, shift, vpid, pcid, ep4ta});
    if (n == kNil && shift != 12 && global_[cls] != 0) {
      // Global kernel mappings match regardless of PCID; they are inserted
      // under PCID 0 with global=true. Retry the global tag.
      n = Find(TlbKey{gva >> shift, shift, vpid, 0, ep4ta});
      if (n != kNil && !nodes_[n].entry.global) {
        n = kNil;
      }
    }
    if (n != kNil) {
      return Hit(n, shift, page_shift);
    }
  }
  // Also probe 4K global entries under PCID 0.
  if (pcid != 0 && global_[SizeClass(12)] != 0) {
    const uint32_t n = Find(TlbKey{gva >> 12, 12, vpid, 0, ep4ta});
    if (n != kNil && nodes_[n].entry.global) {
      return Hit(n, 12, page_shift);
    }
  }
  ++misses_;
  return nullptr;
}

void Tlb::Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
                 const TlbEntry& entry) {
  // Global entries are stored under PCID 0 so every PCID finds them.
  const uint16_t effective_pcid = entry.global ? 0 : pcid;
  const TlbKey key{gva >> page_shift, page_shift, vpid, effective_pcid, ep4ta};
  const int cls = SizeClass(page_shift);
  uint32_t n = Find(key);
  if (n != kNil) {
    global_[cls] += (entry.global ? 1 : 0) - (nodes_[n].entry.global ? 1 : 0);
    nodes_[n].entry = entry;
    Touch(n);
    return;
  }
  if (size_ >= capacity_) {
    Remove(tail_);
  }
  n = free_;
  free_ = nodes_[n].next;
  Node& node = nodes_[n];
  node.key = key;
  node.entry = entry;
  node.home = static_cast<uint32_t>(TlbKeyHash{}(key) & index_mask_);
  size_t i = node.home;
  while (index_[i] != 0) {
    i = (i + 1) & index_mask_;
  }
  index_[i] = n + 1;
  PushFront(n);
  ++live_[cls];
  global_[cls] += entry.global ? 1 : 0;
  ++size_;
}

void Tlb::FlushAll() {
  std::fill(index_.begin(), index_.end(), 0);
  for (size_t n = 0; n < capacity_; ++n) {
    nodes_[n].next = n + 1 < capacity_ ? static_cast<uint32_t>(n + 1) : kNil;
  }
  free_ = 0;
  head_ = kNil;
  tail_ = kNil;
  size_ = 0;
  live_.fill(0);
  global_.fill(0);
}

void Tlb::FlushPcid(uint16_t vpid, uint16_t pcid) {
  RemoveIf([&](const Node& node) {
    return node.key.vpid == vpid && node.key.pcid == pcid && !node.entry.global;
  });
}

void Tlb::FlushVpid(uint16_t vpid) {
  RemoveIf([&](const Node& node) { return node.key.vpid == vpid; });
}

}  // namespace hw
