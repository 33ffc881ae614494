// TLB model with VPID / PCID / EP4TA tagging.
//
// Entries are tagged the way post-Westmere hardware tags them: by virtual
// page, page size, VPID, PCID and — for combined (guest VA -> HPA) mappings —
// the EPT root in use (EP4TA). This is what makes VMFUNC EPTP switching with
// VPID enabled *not* flush the TLB (Table 2): translations cached under the
// old EPTP simply stop matching, while the new EPTP's entries may still be
// warm from an earlier visit.

#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/addr.h"

namespace hw {

struct TlbKey {
  uint64_t vpn = 0;         // gva >> page_shift
  uint8_t page_shift = 12;  // 12, 21 or 30
  uint16_t vpid = 0;
  uint16_t pcid = 0;
  Hpa ep4ta = 0;  // 0 in native (non-virtualized) mode.

  bool operator==(const TlbKey& other) const = default;
};

struct TlbKeyHash {
  size_t operator()(const TlbKey& k) const {
    uint64_t h = k.vpn * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(k.page_shift) << 48) ^ (static_cast<uint64_t>(k.vpid) << 32) ^
         (static_cast<uint64_t>(k.pcid) << 16) ^ (k.ep4ta >> 12);
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

struct TlbEntry {
  Hpa frame = 0;  // Host-physical base of the page.
  bool global = false;
  bool writable = true;
};

// Fully-associative, LRU-replaced translation cache of fixed capacity.
//
// Storage is preallocated: `capacity` nodes on an index-linked LRU list, and
// an open-addressed (linear probing, backward-shift delete) index from key to
// node. Per-page-size counts of live and of global entries let Lookup skip
// probes that cannot hit. Nothing allocates after construction.
class Tlb {
 public:
  explicit Tlb(size_t capacity);

  // Probes 4K, 2M and 1G translations for `gva` under the given tags.
  // Returns the matched entry and sets *page_shift, or nullptr on miss.
  const TlbEntry* Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta, uint8_t* page_shift);

  void Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
              const TlbEntry& entry);

  void FlushAll();
  // Flushes non-global entries with the given (vpid, pcid) — MOV CR3 semantics.
  void FlushPcid(uint16_t vpid, uint16_t pcid);
  // Flushes everything for a VPID (INVVPID all-context).
  void FlushVpid(uint16_t vpid);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};
  // Page-size classes: 4K, 2M, 1G, and any other shift (stored, never probed).
  static constexpr int kSizeClasses = 4;

  struct Node {
    TlbKey key;
    TlbEntry entry;
    uint32_t prev = kNil;  // Toward the most recently used end.
    uint32_t next = kNil;  // Toward the least recently used end; free-list link.
    uint32_t home = 0;     // Index slot the key hashes to.
  };

  static int SizeClass(uint8_t page_shift);
  uint32_t Find(const TlbKey& key) const;
  const TlbEntry* Hit(uint32_t n, uint8_t shift, uint8_t* page_shift);
  void Unlink(uint32_t n);
  void PushFront(uint32_t n);
  void Touch(uint32_t n);  // Moves n to the most recently used end.
  void Remove(uint32_t n);
  void IndexErase(uint32_t n);
  template <typename Pred>
  void RemoveIf(Pred pred);

  size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> index_;  // Node + 1 per slot; 0 = empty.
  size_t index_mask_;
  uint32_t head_ = kNil;  // Most recently used.
  uint32_t tail_ = kNil;  // Least recently used: the next victim.
  uint32_t free_ = kNil;
  size_t size_ = 0;
  std::array<uint32_t, kSizeClasses> live_{};
  std::array<uint32_t, kSizeClasses> global_{};
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_TLB_H_
