// VMFUNC occurrence scanner (paper Section 5.2).
//
// Finds every occurrence of the VMFUNC byte pattern (0F 01 D4) in a code
// region and classifies it against decoded instruction boundaries into the
// paper's three conditions:
//   C1 — the instruction is VMFUNC itself,
//   C2 — the pattern spans two or more instructions,
//   C3 — the pattern is embedded in a longer instruction's ModRM, SIB,
//        displacement or immediate field.
//
// The raw byte scan is memchr-accelerated and can fan out across a
// sb::ThreadPool, one chunk per code page. Each chunk owns the pattern
// starts inside its own byte range (reading up to two bytes past it for
// straddling patterns), so the merged result is byte-identical to the
// serial scan regardless of thread scheduling.
//
// ImageScan is the rewriter's incremental form of the same scan: it finds
// the raw offsets and the linear-sweep instruction starts of an image once,
// then keeps both exact across patches by re-scanning only the bytes an edit
// can have changed (DESIGN.md section 17). Its one pool dispatch fans out
// the sweep as well as the search: every chunk is swept speculatively from
// its own first byte, and a serial stitch joins the chunks into the one true
// sweep.

#ifndef SRC_X86_SCANNER_H_
#define SRC_X86_SCANNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/x86/insn.h"

namespace sb {
class ThreadPool;
}  // namespace sb

namespace x86 {

inline constexpr uint8_t kVmfuncBytes[3] = {0x0f, 0x01, 0xd4};
// The other scrubbed gate primitive: WRPKRU, used by the MPK crossing
// backend. Same three-byte 0F 01 /r shape, so scan and rewrite machinery is
// shared — ScanOptions::pattern selects which triple a pass looks for.
inline constexpr uint8_t kWrpkruBytes[3] = {0x0f, 0x01, 0xef};

struct VmfuncHit {
  size_t pattern_off = 0;  // Offset of the 0x0F byte.
  size_t insn_off = 0;     // Start of the instruction containing the 0x0F byte.
  VmfuncOverlap overlap = VmfuncOverlap::kUndecodable;
};

// Accounting for one or more scans (accumulated across calls). The fields
// are atomics so one ScanStats can be shared as the sink of scans running
// concurrently on different threads (relaxed ordering: the totals are read
// after the scans join).
struct ScanStats {
  std::atomic<uint64_t> pages{0};    // Chunks (code pages) scanned.
  std::atomic<uint64_t> threads{0};  // Widest fan-out: max threads any scan used.

  void AddPages(uint64_t n) { pages.fetch_add(n, std::memory_order_relaxed); }
  void MaxThreads(uint64_t n) {
    uint64_t cur = threads.load(std::memory_order_relaxed);
    while (n > cur && !threads.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
    }
  }
};

struct ScanOptions {
  sb::ThreadPool* pool = nullptr;  // nullptr => every chunk on the caller.
  size_t chunk_bytes = 4096;       // Fan-out granularity (one code page).
  ScanStats* stats = nullptr;      // Optional accounting sink.
  // The three-byte gate pattern this pass hunts: kVmfuncBytes (default) or
  // kWrpkruBytes. Must point at three bytes starting with 0x0F.
  const uint8_t* pattern = kVmfuncBytes;
};

// Returns the raw offsets of every pattern triple (no decoding), in
// ascending offset order.
std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code);
std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code, const ScanOptions& options);

// What one scan of an image learns: the linear-sweep instruction starts (one
// bit per code byte) and the ascending raw offsets of `pattern`. The index of
// a template is all a byte-identical fork needs to skip its own sweep.
struct ScanIndex {
  const uint8_t* pattern = kVmfuncBytes;
  std::vector<uint64_t> start_bits;  // Bit i set: an instruction starts at i.
  std::vector<size_t> raw;
};

// Incremental scan state of one code image. Construction runs the full scan
// in one ParallelFor over chunks of options.chunk_bytes (rounded up to a
// multiple of 64, so chunks own disjoint start_bits words), or inline with no
// pool: each chunk's raw search, plus a length-only sweep from the chunk's
// first byte. A serial stitch then enters each chunk at the true exit of the
// one before and walks the true sweep, clearing the speculative starts it
// steps over, until it lands on a speculative start; from there the chunk's
// sweep is the true one. Patch() keeps the index equal to what a fresh scan
// of the patched bytes would find, re-scanning only
//   - raw offsets in [lo - 2, hi): the only triples that read a byte of the
//     patched range [lo, hi);
//   - instruction starts from the last start <= lo - 15 (Decode reads at
//     most 15 bytes, so that start and every earlier one decode as before),
//     until the sweep lands on an old start >= hi, from where it follows the
//     old path.
class ImageScan {
 public:
  ImageScan(std::vector<uint8_t> code, const ScanOptions& options);
  // Adopts an index previously taken from a scan of exactly these bytes.
  ImageScan(std::vector<uint8_t> code, ScanIndex index);

  std::span<const uint8_t> code() const { return code_; }
  const ScanIndex& index() const { return index_; }
  const uint8_t* pattern() const { return index_.pattern; }
  std::vector<uint8_t> TakeCode() { return std::move(code_); }
  ScanIndex TakeIndex() { return std::move(index_); }

  // Replaces code[off, off + bytes.size()) and re-syncs the index.
  void Patch(size_t off, std::span<const uint8_t> bytes);

  // Re-targets the scan at options.pattern: re-finds the raw offsets and
  // keeps the (pattern-independent) instruction starts. No-op when the
  // pattern is unchanged.
  void SetPattern(const ScanOptions& options);

  // The classified occurrence with the lowest pattern offset in [lo, hi).
  std::optional<VmfuncHit> FirstHit(size_t lo, size_t hi) const;

  // The first instruction start >= off (code().size() when there is none).
  size_t NextStart(size_t off) const;
  // Every instruction start, ascending (LinearSweep's answer).
  std::vector<size_t> Starts() const;

 private:
  bool IsStart(size_t off) const { return (index_.start_bits[off >> 6] >> (off & 63)) & 1; }
  void SetStart(size_t off) { index_.start_bits[off >> 6] |= 1ULL << (off & 63); }
  void ClearStarts(size_t lo, size_t hi);
  size_t LastStartAtOrBefore(size_t off) const;

  std::vector<uint8_t> code_;
  ScanIndex index_;
};

// Full scan: find and classify every occurrence.
std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code);
std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options);

}  // namespace x86

#endif  // SRC_X86_SCANNER_H_
