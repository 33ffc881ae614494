#include "src/x86/scanner.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/thread_pool.h"
#include "src/x86/decoder.h"

namespace x86 {
namespace {

// Longest x86 instruction: the most bytes one Decode call reads.
constexpr size_t kMaxInsnBytes = 15;

// Appends every pattern start in [begin, limit) to `out`, memchr-hopping
// between 0x0F candidates. The caller guarantees limit + 2 <= code.size(),
// so reading the two trailing bytes of a straddling candidate is safe.
void ScanRange(std::span<const uint8_t> code, size_t begin, size_t limit,
               const uint8_t* pattern, std::vector<size_t>& out) {
  const uint8_t* base = code.data();
  size_t i = begin;
  while (i < limit) {
    const void* p = std::memchr(base + i, pattern[0], limit - i);
    if (p == nullptr) {
      return;
    }
    const size_t off = static_cast<size_t>(static_cast<const uint8_t*>(p) - base);
    if (base[off + 1] == pattern[1] && base[off + 2] == pattern[2]) {
      out.push_back(off);
    }
    i = off + 1;
  }
}

// Classifies the occurrence at `off` against the instruction starting at
// `insn_start` (the last linear-sweep start <= off).
VmfuncHit ClassifyHit(std::span<const uint8_t> code, size_t insn_start, size_t off,
                      const uint8_t* pattern) {
  VmfuncHit hit;
  hit.pattern_off = off;
  hit.insn_off = insn_start;
  const Insn insn = Decode(code, insn_start);
  if (!insn.valid) {
    hit.overlap = VmfuncOverlap::kUndecodable;
    return hit;
  }
  if (off + 3 > insn_start + insn.length) {
    hit.overlap = VmfuncOverlap::kSpans;
    return hit;
  }
  const size_t rel = off - insn_start;  // Field offsets are insn-relative.
  // Which gate mnemonic counts as "the pattern is the instruction itself"
  // depends on the triple being scanned (0F 01 D4 vs 0F 01 EF).
  const Mnemonic gate = pattern[2] == kWrpkruBytes[2] ? Mnemonic::kWrpkru : Mnemonic::kVmfunc;
  if (insn.mnemonic == gate && rel == insn.opcode_off) {
    hit.overlap = VmfuncOverlap::kIsVmfunc;
  } else if (insn.has_modrm && rel == insn.modrm_off) {
    hit.overlap = VmfuncOverlap::kInModrm;
  } else if (insn.has_sib && rel == insn.sib_off) {
    hit.overlap = VmfuncOverlap::kInSib;
  } else if (insn.disp_len > 0 && rel >= insn.disp_off && rel < insn.disp_off + insn.disp_len) {
    hit.overlap = VmfuncOverlap::kInDisp;
  } else if (insn.imm_len > 0 && rel >= insn.imm_off && rel < insn.imm_off + insn.imm_len) {
    hit.overlap = VmfuncOverlap::kInImm;
  } else {
    hit.overlap = VmfuncOverlap::kInOpcode;
  }
  return hit;
}

}  // namespace

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code) {
  return FindVmfuncBytes(code, ScanOptions{});
}

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<size_t> offsets;
  if (code.size() < 3) {
    return offsets;
  }
  const size_t search_end = code.size() - 2;  // Valid pattern starts: [0, search_end).
  const size_t chunk = options.chunk_bytes == 0 ? 4096 : options.chunk_bytes;
  const size_t num_chunks = (code.size() + chunk - 1) / chunk;
  if (options.stats != nullptr) {
    options.stats->AddPages(num_chunks);
  }
  const uint8_t* pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  if (options.pool == nullptr || num_chunks < 2) {
    ScanRange(code, 0, search_end, pattern, offsets);
    if (options.stats != nullptr) {
      options.stats->MaxThreads(1);
    }
    return offsets;
  }
  // One bucket per code page; chunk c owns the starts in [c*chunk,
  // (c+1)*chunk). Buckets are disjoint and internally ascending, so the
  // in-order merge reproduces the serial scan byte for byte.
  std::vector<std::vector<size_t>> buckets(num_chunks);
  const size_t used = options.pool->ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t limit = std::min((c + 1) * chunk, search_end);
    if (begin < limit) {
      ScanRange(code, begin, limit, pattern, buckets[c]);
    }
  });
  if (options.stats != nullptr) {
    options.stats->MaxThreads(used);
  }
  for (const std::vector<size_t>& bucket : buckets) {
    offsets.insert(offsets.end(), bucket.begin(), bucket.end());
  }
  return offsets;
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code) {
  return ScanForVmfunc(code, ScanOptions{});
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<VmfuncHit> hits;
  const std::vector<size_t> raw = FindVmfuncBytes(code, options);
  if (raw.empty()) {
    return hits;
  }
  const std::vector<size_t> starts = LinearSweep(code);
  const uint8_t* pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  for (const size_t off : raw) {
    // The instruction whose bytes contain `off`: the last start <= off.
    auto it = std::upper_bound(starts.begin(), starts.end(), off);
    hits.push_back(ClassifyHit(code, *std::prev(it), off, pattern));
  }
  return hits;
}

// ---- ImageScan ----

ImageScan::ImageScan(std::vector<uint8_t> code, const ScanOptions& options)
    : code_(std::move(code)) {
  index_.pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  index_.start_bits.assign((code_.size() + 63) / 64, 0);
  // Chunks are whole start_bits words, so concurrent chunks never share one.
  const size_t chunk_bytes = options.chunk_bytes == 0 ? 4096 : options.chunk_bytes;
  const size_t chunk = (chunk_bytes + 63) / 64 * 64;
  const size_t size = code_.size();
  const size_t num_chunks = (size + chunk - 1) / chunk;
  const size_t search_end = size >= 2 ? size - 2 : 0;  // Valid pattern starts.
  std::vector<std::vector<size_t>> raw(num_chunks);
  std::vector<size_t> exits(num_chunks);
  // One task per chunk: its raw pattern starts, and a speculative sweep from
  // its own first byte that sets the starts inside the chunk and records
  // where it leaves it.
  const auto scan_chunk = [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, size);
    ScanRange(code_, begin, std::min(end, search_end), index_.pattern, raw[c]);
    size_t pos = begin;
    while (pos < end) {
      SetStart(pos);
      pos += InsnLength(code_, pos);
    }
    exits[c] = pos;
  };
  size_t threads = 1;
  if (options.pool != nullptr) {
    threads = options.pool->ParallelFor(num_chunks, scan_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) {
      scan_chunk(c);
    }
  }
  if (options.stats != nullptr) {
    options.stats->AddPages(num_chunks);
    options.stats->MaxThreads(threads);
  }
  for (const std::vector<size_t>& bucket : raw) {
    index_.raw.insert(index_.raw.end(), bucket.begin(), bucket.end());
  }
  // Stitch (DESIGN.md section 17). Chunk 0's sweep starts where the true one
  // does. Every later chunk is entered at the true exit of the one before:
  // walk the true sweep from there, clearing the speculative starts it steps
  // over, until it lands on a speculative start. Decoding is deterministic
  // from a start, so from that start on the chunk's sweep is the true one and
  // so is its exit. A chunk that never re-joins is fully re-swept.
  size_t entry = num_chunks > 0 ? exits[0] : 0;
  for (size_t c = 1; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, size);
    ClearStarts(begin, std::min(entry, end));
    size_t pos = entry;
    while (pos < end && !IsStart(pos)) {
      SetStart(pos);
      const size_t next = pos + InsnLength(code_, pos);
      ClearStarts(pos + 1, std::min(next, end));
      pos = next;
    }
    entry = pos < end ? exits[c] : pos;
  }
}

ImageScan::ImageScan(std::vector<uint8_t> code, ScanIndex index)
    : code_(std::move(code)), index_(std::move(index)) {
  SB_CHECK(index_.start_bits.size() == (code_.size() + 63) / 64)
      << "scan index does not match the image size";
}

void ImageScan::SetPattern(const ScanOptions& options) {
  const uint8_t* pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  if (std::memcmp(pattern, index_.pattern, 3) == 0) {
    return;
  }
  index_.pattern = pattern;
  index_.raw = FindVmfuncBytes(code_, options);
}

void ImageScan::Patch(size_t off, std::span<const uint8_t> bytes) {
  SB_CHECK(off + bytes.size() <= code_.size()) << "patch outside the image";
  if (bytes.empty()) {
    return;
  }
  std::copy(bytes.begin(), bytes.end(), code_.begin() + static_cast<long>(off));
  const size_t lo = off;
  const size_t hi = off + bytes.size();

  // Raw offsets: only triples starting in [lo - 2, hi) read a patched byte.
  const size_t raw_lo = lo >= 2 ? lo - 2 : 0;
  const size_t raw_hi = std::min(hi, code_.size() >= 2 ? code_.size() - 2 : 0);
  std::vector<size_t>& raw = index_.raw;
  auto first = std::lower_bound(raw.begin(), raw.end(), raw_lo);
  auto last = std::lower_bound(first, raw.end(), hi);
  std::vector<size_t> found;
  if (raw_lo < raw_hi) {
    ScanRange(code_, raw_lo, raw_hi, index_.pattern, found);
  }
  first = raw.erase(first, last);
  raw.insert(first, found.begin(), found.end());

  // Instruction starts: restart from a start whose decode cannot have read
  // a patched byte, and stop once the sweep rejoins the old one past `hi`.
  size_t pos = lo >= kMaxInsnBytes ? LastStartAtOrBefore(lo - kMaxInsnBytes) : 0;
  while (true) {
    const size_t next = pos + InsnLength(code_, pos);
    ClearStarts(pos + 1, std::min(next, code_.size()));
    if (next >= code_.size() || (next >= hi && IsStart(next))) {
      return;
    }
    SetStart(next);
    pos = next;
  }
}

void ImageScan::ClearStarts(size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    index_.start_bits[i >> 6] &= ~(1ULL << (i & 63));
  }
}

size_t ImageScan::LastStartAtOrBefore(size_t off) const {
  size_t word = off >> 6;
  uint64_t bits = index_.start_bits[word] & (~0ULL >> (63 - (off & 63)));
  while (bits == 0) {
    SB_CHECK(word > 0) << "no instruction start at or before " << off;
    bits = index_.start_bits[--word];
  }
  return (word << 6) + 63 - static_cast<size_t>(std::countl_zero(bits));
}

size_t ImageScan::NextStart(size_t off) const {
  if (off >= code_.size()) {
    return code_.size();
  }
  size_t word = off >> 6;
  uint64_t bits = index_.start_bits[word] & (~0ULL << (off & 63));
  while (bits == 0) {
    if (++word == index_.start_bits.size()) {
      return code_.size();
    }
    bits = index_.start_bits[word];
  }
  return (word << 6) + static_cast<size_t>(std::countr_zero(bits));
}

std::vector<size_t> ImageScan::Starts() const {
  std::vector<size_t> starts;
  for (size_t s = NextStart(0); s < code_.size(); s = NextStart(s + 1)) {
    starts.push_back(s);
  }
  return starts;
}

std::optional<VmfuncHit> ImageScan::FirstHit(size_t lo, size_t hi) const {
  auto it = std::lower_bound(index_.raw.begin(), index_.raw.end(), lo);
  if (it == index_.raw.end() || *it >= hi) {
    return std::nullopt;
  }
  return ClassifyHit(code_, LastStartAtOrBefore(*it), *it, index_.pattern);
}

}  // namespace x86
