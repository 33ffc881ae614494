// Cross-module property tests: decoder fuzzing, EPT remaps against a
// reference map, file-system operations against a reference model (with a
// remount in the middle), and executor determinism.

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/apps/corpus.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/fs/block_device.h"
#include "src/fs/xv6fs.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/sim/executor.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"
#include "src/x86/emulator.h"
#include "src/x86/rewriter.h"
#include "src/x86/scanner.h"

namespace {

using sb::kGiB;
using sb::kMiB;
using sb::kPageSize;

// ---- Decoder fuzz: arbitrary bytes never crash, lengths stay sane ----

class DecoderFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzzTest, RandomBytesDecodeSafely) {
  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<uint8_t> bytes(4096);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  size_t pos = 0;
  while (pos < bytes.size()) {
    const x86::Insn insn = x86::Decode(bytes, pos);
    ASSERT_GE(insn.length, 1);
    ASSERT_LE(insn.length, 15);
    if (insn.valid) {
      // Field offsets stay inside the instruction.
      if (insn.has_modrm) {
        ASSERT_LT(insn.modrm_off, insn.length);
      }
      if (insn.disp_len > 0) {
        ASSERT_LE(insn.disp_off + insn.disp_len, insn.length);
      }
      if (insn.imm_len > 0) {
        ASSERT_LE(insn.imm_off + insn.imm_len, insn.length);
      }
    }
    pos += insn.length;
  }
  // The sweep exactly tiles the buffer.
  const std::vector<size_t> starts = x86::LinearSweep(bytes);
  ASSERT_FALSE(starts.empty());
  EXPECT_EQ(starts.front(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Range(0, 16));

// ---- EPT: random remaps behave like a reference map ----

class EptPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EptPropertyTest, RandomRemapsMatchReference) {
  hw::HostPhysMem mem(2 * kGiB);
  hw::FrameAllocator frames(1 * kGiB, 256 * kMiB);
  auto base = hw::Ept::Create(mem, frames);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, hw::kEptRwx).ok());

  auto derived = (*base)->ShallowCopy();
  ASSERT_TRUE(derived.ok());

  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 1337 + 3);
  std::map<hw::Gpa, hw::Hpa> reference;
  for (int i = 0; i < 64; ++i) {
    const hw::Gpa gpa = rng.Below(1ULL << 18) * kPageSize;  // Within the 1G region.
    const hw::Hpa target = (rng.Below(1ULL << 18)) * kPageSize;
    ASSERT_TRUE((*derived)->RemapGpaPage(gpa, target).ok());
    reference[gpa] = target;
  }
  // Remapped pages translate to their targets; everything else is identity.
  for (const auto& [gpa, target] : reference) {
    const hw::EptWalk walk = (*derived)->Walk(gpa + 0x123, hw::kEptRead);
    ASSERT_TRUE(walk.ok);
    EXPECT_EQ(walk.hpa, target + 0x123);
    // The base EPT is untouched.
    EXPECT_EQ((*base)->Walk(gpa + 0x123, hw::kEptRead).hpa, gpa + 0x123);
  }
  for (int i = 0; i < 64; ++i) {
    const hw::Gpa gpa = rng.Below(1ULL << 18) * kPageSize;
    if (!reference.contains(gpa)) {
      EXPECT_EQ((*derived)->Walk(gpa, hw::kEptRead).hpa, gpa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EptPropertyTest, ::testing::Range(0, 8));

// ---- File system vs a reference model, with a remount mid-way ----

fsys::BlockTransport DiskTransport(fsys::RamDisk* disk) {
  return [disk](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    uint32_t block = 0;
    std::memcpy(&block, msg.data.data(), 4);
    if (msg.tag == fsys::kBlockRead) {
      mk::Message reply(1);
      reply.data.resize(fsys::kBlockSize);
      SB_RETURN_IF_ERROR(disk->Read(nullptr, block, reply.data));
      return reply;
    }
    SB_RETURN_IF_ERROR(disk->Write(
        nullptr, block, std::span<const uint8_t>(msg.data.data() + 4, fsys::kBlockSize)));
    return mk::Message(1);
  };
}

class FsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FsPropertyTest, RandomOpsMatchReferenceModel) {
  fsys::RamDisk disk(8192);
  auto fs = std::make_unique<fsys::Xv6Fs>(DiskTransport(&disk));
  ASSERT_TRUE(fs->Mkfs().ok());
  ASSERT_TRUE(fs->Mount().ok());

  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 11);
  std::map<std::string, std::string> reference;  // path -> contents
  auto random_path = [&] { return "/f" + std::to_string(rng.Below(12)); };

  for (int step = 0; step < 250; ++step) {
    if (step == 125) {
      // Remount mid-run: everything must persist.
      fs = std::make_unique<fsys::Xv6Fs>(DiskTransport(&disk));
      ASSERT_TRUE(fs->Mount().ok());
    }
    const std::string path = random_path();
    switch (rng.Below(4)) {
      case 0: {  // Create
        const bool existed = reference.contains(path);
        const bool created = fs->Create(path).ok();
        EXPECT_EQ(created, !existed) << path;
        if (created) {
          reference[path] = "";
        }
        break;
      }
      case 1: {  // Write (append-style at a random offset within size+1K)
        if (!reference.contains(path)) {
          break;
        }
        auto inum = fs->Lookup(path);
        ASSERT_TRUE(inum.ok());
        std::string& contents = reference[path];
        const uint32_t offset = static_cast<uint32_t>(rng.Below(contents.size() + 512));
        const size_t len = 1 + rng.Below(700);
        std::string data(len, static_cast<char>('a' + rng.Below(26)));
        ASSERT_TRUE(fs->WriteFile(*inum, offset,
                                  std::span<const uint8_t>(
                                      reinterpret_cast<const uint8_t*>(data.data()), len))
                        .ok());
        if (contents.size() < offset + len) {
          contents.resize(offset + len, '\0');
        }
        contents.replace(offset, len, data);
        break;
      }
      case 2: {  // Read-verify the whole file
        if (!reference.contains(path)) {
          EXPECT_FALSE(fs->Lookup(path).ok());
          break;
        }
        auto inum = fs->Lookup(path);
        ASSERT_TRUE(inum.ok());
        const std::string& contents = reference[path];
        EXPECT_EQ(*fs->FileSize(*inum), contents.size());
        std::vector<uint8_t> out(contents.size());
        if (!contents.empty()) {
          ASSERT_TRUE(fs->ReadFile(*inum, 0, out).ok());
          EXPECT_EQ(std::string(out.begin(), out.end()), contents) << path;
        }
        break;
      }
      case 3: {  // Unlink
        const bool existed = reference.contains(path);
        EXPECT_EQ(fs->Unlink(path).ok(), existed) << path;
        reference.erase(path);
        break;
      }
    }
  }
  // Final directory listing matches the reference exactly, and the on-disk
  // structures pass the consistency check.
  auto names = fs->ListDir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), reference.size());
  const sb::Status fsck = fs->Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest, ::testing::Range(0, 8));

// ---- Parallel VMFUNC scan == serial scan, byte for byte ----

TEST(ScanParityProperty, ParallelScanMatchesSerialOnTable6Corpus) {
  sb::ThreadPool pool(4);
  const std::vector<apps::CorpusProgram> corpus = apps::BuildTable6Corpus(0x5eed);
  ASSERT_FALSE(corpus.empty());
  for (const apps::CorpusProgram& program : corpus) {
    const std::vector<size_t> serial = x86::FindVmfuncBytes(program.code);
    // Exercise several chunk sizes, including ones that do not divide the
    // image evenly.
    for (const size_t chunk : {size_t{4096}, size_t{4095}, size_t{1 << 16}, size_t{257}}) {
      x86::ScanOptions options;
      options.pool = &pool;
      options.chunk_bytes = chunk;
      EXPECT_EQ(x86::FindVmfuncBytes(program.code, options), serial)
          << program.name << " chunk=" << chunk;
    }
  }
}

TEST(ScanParityProperty, PatternsStraddlingChunkBoundariesAreFound) {
  sb::ThreadPool pool(4);
  // Place the 3-byte pattern at every offset around each chunk boundary so
  // the straddle cases (pattern starting 1 or 2 bytes before a boundary) are
  // all exercised.
  const size_t chunk = 256;
  std::vector<uint8_t> code(chunk * 8, 0x90);
  std::vector<size_t> expected;
  for (size_t b = 1; b < 8; ++b) {
    const size_t off = b * chunk - (b % 3);  // Boundary, boundary-1, boundary-2.
    code[off] = 0x0f;
    code[off + 1] = 0x01;
    code[off + 2] = 0xd4;
    expected.push_back(off);
  }
  EXPECT_EQ(x86::FindVmfuncBytes(code), expected);
  x86::ScanOptions options;
  options.pool = &pool;
  options.chunk_bytes = chunk;
  x86::ScanStats stats;
  options.stats = &stats;
  EXPECT_EQ(x86::FindVmfuncBytes(code, options), expected);
  EXPECT_EQ(stats.pages, 8u);
}

// Regression test for the scan-accounting data race: one ScanStats shared as
// the sink of scans running concurrently on different host threads (the
// shape RewriteProcessImage produces when registrations overlap). The fields
// are atomics; under TSan this test is the witness, and the folded totals
// must be exact.
TEST(ScanParityProperty, SharedScanStatsAcrossConcurrentScansIsExact) {
  const size_t chunk = 256;
  const std::vector<uint8_t> code(chunk * 16, 0x90);
  x86::ScanStats stats;
  constexpr int kScanners = 4;
  constexpr int kScansEach = 8;
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; ++t) {
    scanners.emplace_back([&code, &stats, chunk] {
      sb::ThreadPool pool(2);
      x86::ScanOptions options;
      options.pool = &pool;
      options.chunk_bytes = chunk;
      options.stats = &stats;
      for (int i = 0; i < kScansEach; ++i) {
        EXPECT_TRUE(x86::FindVmfuncBytes(code, options).empty());
      }
    });
  }
  for (std::thread& t : scanners) {
    t.join();
  }
  EXPECT_EQ(stats.pages, static_cast<uint64_t>(kScanners) * kScansEach * 16);
  EXPECT_GE(stats.threads, 1u);
  EXPECT_LE(stats.threads, 3u);  // Pool of 2 + the calling thread.
}

TEST(ScanParityProperty, ParallelRewriteMatchesSerialOnTable6Corpus) {
  sb::ThreadPool pool(4);
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0x5eed)) {
    x86::RewriteConfig serial_config;
    auto serial = x86::RewriteVmfunc(program.code, serial_config);
    ASSERT_TRUE(serial.ok()) << program.name;

    x86::RewriteConfig pooled_config;
    pooled_config.scan_pool = &pool;
    auto pooled = x86::RewriteVmfunc(program.code, pooled_config);
    ASSERT_TRUE(pooled.ok()) << program.name;

    // The rewrite output is byte-identical regardless of scan fan-out.
    EXPECT_EQ(pooled->code, serial->code) << program.name;
    EXPECT_EQ(pooled->rewrite_page, serial->rewrite_page) << program.name;
    EXPECT_EQ(pooled->stats.nop_replaced, serial->stats.nop_replaced) << program.name;
    EXPECT_EQ(pooled->stats.windows_relocated, serial->stats.windows_relocated) << program.name;
    EXPECT_EQ(pooled->stats.scan_pages, serial->stats.scan_pages) << program.name;
  }
}

// ---- Scanner fuzz: random byte streams vs a naive reference search ----

std::vector<size_t> NaiveFindPattern(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> hits;
  for (size_t i = 0; i + 3 <= bytes.size(); ++i) {
    if (bytes[i] == 0x0f && bytes[i + 1] == 0x01 && bytes[i + 2] == 0xd4) {
      hits.push_back(i);
    }
  }
  return hits;
}

class ScannerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ScannerFuzzTest, RandomStreamsMatchTheNaiveSearch) {
  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<uint8_t> bytes(48 * 1024);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Sprinkle the pattern at arbitrary offsets: mid-"instruction" for any
  // later decode, back to back, wherever the dice land.
  for (int i = 0; i < 24; ++i) {
    const size_t off = rng.Below(bytes.size() - 3);
    bytes[off] = 0x0f;
    bytes[off + 1] = 0x01;
    bytes[off + 2] = 0xd4;
  }
  const std::vector<size_t> expected = NaiveFindPattern(bytes);
  ASSERT_GE(expected.size(), 1u);
  EXPECT_EQ(x86::FindVmfuncBytes(bytes), expected);
  // The chunked parallel scan agrees at awkward chunk sizes.
  sb::ThreadPool pool(4);
  for (const size_t chunk : {size_t{257}, size_t{4096}}) {
    x86::ScanOptions options;
    options.pool = &pool;
    options.chunk_bytes = chunk;
    EXPECT_EQ(x86::FindVmfuncBytes(bytes, options), expected) << "chunk=" << chunk;
  }
  // The classifying scan never crashes on arbitrary surrounding bytes and
  // misses nothing the byte search found.
  const std::vector<x86::VmfuncHit> hits = x86::ScanForVmfunc(bytes);
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].pattern_off, expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScannerFuzzTest, ::testing::Range(0, 8));

// ---- Rewriter: every embedding class is scrubbed, behavior preserved ----

constexpr uint64_t kRwCodeBase = 0x400000;
constexpr uint64_t kRwPageBase = 0x1000;
constexpr uint64_t kRwDataBase = 0x10000;
constexpr uint64_t kRwDataLen = 0x1000;

struct EmuRun {
  x86::StopInfo stop;
  x86::CpuState state;
  std::vector<uint8_t> data;
};

EmuRun RunProgram(const std::vector<uint8_t>& code, const std::vector<uint8_t>& page) {
  x86::Emulator emu;
  emu.LoadBytes(kRwCodeBase, code);
  if (!page.empty()) {
    emu.LoadBytes(kRwPageBase, page);
  }
  emu.state().reg(x86::Reg::kRax) = 0x1111;
  emu.state().reg(x86::Reg::kRbx) = 0x2222;
  emu.state().reg(x86::Reg::kRcx) = 0x3333;
  emu.state().reg(x86::Reg::kRdx) = 0x4444;
  emu.state().reg(x86::Reg::kRsi) = kRwDataBase + 0x100;
  emu.state().reg(x86::Reg::kRdi) = kRwDataBase;
  emu.state().rip = kRwCodeBase;
  emu.state().reg(x86::Reg::kRsp) = x86::Emulator::kInitialRsp;
  EmuRun r;
  r.stop = emu.Run(100000);
  r.state = emu.state();
  r.data.resize(kRwDataLen);
  for (uint64_t i = 0; i < kRwDataLen; ++i) {
    r.data[i] = emu.ReadByte(kRwDataBase + i);
  }
  return r;
}

// Random flag-agnostic filler that keeps rdi (the data pointer) and rsp
// intact so memory operands stay well-defined.
void EmitFiller(x86::Assembler& a, sb::Rng& rng, int n_ops) {
  static const x86::Reg kPool[] = {x86::Reg::kRax, x86::Reg::kRbx, x86::Reg::kRcx,
                                   x86::Reg::kRdx, x86::Reg::kR8};
  auto reg = [&] { return kPool[rng.Below(5)]; };
  for (int i = 0; i < n_ops; ++i) {
    switch (rng.Below(6)) {
      case 0:
        a.MovRI64(reg(), rng.Below(1u << 30));
        break;
      case 1:
        a.AddRR(reg(), reg());
        break;
      case 2:
        a.XorRR(reg(), reg());
        break;
      case 3:
        a.MovMR64(x86::Reg::kRdi, static_cast<int32_t>(rng.Below(0x80) * 8), reg());
        break;
      case 4:
        a.MovRM64(reg(), x86::Reg::kRdi, static_cast<int32_t>(rng.Below(0x80) * 8));
        break;
      case 5:
        a.ShlRI(reg(), static_cast<uint8_t>(rng.Below(8)));
        break;
    }
  }
}

class RewriteEmbeddingTest : public ::testing::TestWithParam<int> {};

// Plants `0F 01 D4` as a true VMFUNC at an instruction boundary and inside
// every field a Table 3 occurrence can hide in (ModRM, SIB, displacement,
// immediate, spanning two instructions), surrounded by random filler. After
// rewriting: zero occurrences anywhere, and the program's architectural
// effect is unchanged.
TEST_P(RewriteEmbeddingTest, EveryEmbeddingIsScrubbedAndEquivalent) {
  struct Embedding {
    const char* name;
    x86::VmfuncOverlap expected;
    void (*plant)(x86::Assembler&);
  };
  static const Embedding kEmbeddings[] = {
      {"boundary", x86::VmfuncOverlap::kIsVmfunc, [](x86::Assembler& a) { a.Vmfunc(); }},
      {"imm", x86::VmfuncOverlap::kInImm,
       [](x86::Assembler& a) { a.AddRI(x86::Reg::kRax, 0x00d4010f); }},
      // imul rcx, [rdi], 0xD401 — the 0x0F is the ModRM byte.
      {"modrm", x86::VmfuncOverlap::kInModrm,
       [](x86::Assembler& a) { a.Raw({0x48, 0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00}); }},
      // lea rbx, [rdi + rcx*1 + 0xD401] — the 0x0F is the SIB byte.
      {"sib", x86::VmfuncOverlap::kInSib,
       [](x86::Assembler& a) { a.Raw({0x48, 0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00}); }},
      // add rbx, [rdi + 0xD4010F] — the pattern sits in the displacement.
      {"disp", x86::VmfuncOverlap::kInDisp,
       [](x86::Assembler& a) { a.Raw({0x48, 0x03, 0x9f, 0x0f, 0x01, 0xd4, 0x00}); }},
      // mov eax, 0x0F000000 ends with 0F; add esp, edx is 01 D4. The 32-bit
      // add zero-extends RSP, so it is saved around the gadget.
      {"spans", x86::VmfuncOverlap::kSpans,
       [](x86::Assembler& a) {
         a.MovRR64(x86::Reg::kR9, x86::Reg::kRsp);
         a.MovRI32(x86::Reg::kRdx, 0);
         a.MovRI32(x86::Reg::kRax, 0x0f000000);
         a.Raw({0x01, 0xd4});
         a.MovRR64(x86::Reg::kRsp, x86::Reg::kR9);
       }},
  };

  x86::RewriteConfig config;
  config.code_base = kRwCodeBase;
  config.rewrite_page_base = kRwPageBase;

  for (const Embedding& e : kEmbeddings) {
    sb::Rng rng(static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL +
                static_cast<uint64_t>(e.expected));
    x86::Assembler a;
    EmitFiller(a, rng, 2 + static_cast<int>(rng.Below(6)));
    e.plant(a);
    EmitFiller(a, rng, 2 + static_cast<int>(rng.Below(6)));
    a.Ret();
    const std::vector<uint8_t> code = a.Take();

    // The pre-rewrite scan sees the planted embedding with its class.
    const std::vector<x86::VmfuncHit> hits = x86::ScanForVmfunc(code);
    ASSERT_FALSE(hits.empty()) << e.name;
    bool classified = false;
    for (const x86::VmfuncHit& hit : hits) {
      classified |= hit.overlap == e.expected;
    }
    EXPECT_TRUE(classified) << e.name;

    // Post-rewrite: zero occurrences in the code and on the rewrite page.
    auto rewritten = x86::RewriteVmfunc(code, config);
    ASSERT_TRUE(rewritten.ok()) << e.name << ": " << rewritten.status().ToString();
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->code).empty()) << e.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->rewrite_page).empty()) << e.name;
    ASSERT_EQ(rewritten->code.size(), code.size()) << e.name;

    // Behavioral equivalence (flags excluded: split arithmetic may differ).
    const EmuRun orig = RunProgram(code, {});
    const EmuRun rewr = RunProgram(rewritten->code, rewritten->rewrite_page);
    EXPECT_EQ(rewr.stop.reason, x86::StopReason::kRet) << e.name;
    EXPECT_EQ(rewr.stop.vmfunc_count, 0u) << e.name << ": rewritten code executed VMFUNC";
    if (e.expected == x86::VmfuncOverlap::kIsVmfunc) {
      // A true VMFUNC halts the emulator, so the original has no comparable
      // end state — the rewrite (NOP fill) must simply run through it.
      EXPECT_EQ(orig.stop.reason, x86::StopReason::kVmfunc) << e.name;
      continue;
    }
    ASSERT_EQ(orig.stop.reason, x86::StopReason::kRet) << e.name;
    for (int r = 0; r < x86::kNumRegs; ++r) {
      EXPECT_EQ(orig.state.regs[r], rewr.state.regs[r])
          << e.name << " reg " << x86::RegName(static_cast<x86::Reg>(r));
    }
    EXPECT_EQ(orig.data, rewr.data) << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEmbeddingTest, ::testing::Range(0, 12));

// The Table 6 corpus (multi-MiB generated programs, including the call-imm
// pattern generator) rewrites to zero occurrences end to end.
TEST(RewriteScrubProperty, Table6CorpusRewritesToZeroOccurrences) {
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0xfeed)) {
    auto rewritten = x86::RewriteVmfunc(program.code, x86::RewriteConfig{});
    ASSERT_TRUE(rewritten.ok()) << program.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->code).empty()) << program.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->rewrite_page).empty()) << program.name;
  }
}

// ---- The one-sweep scan engine == a fresh rescan ----
//
// x86::ImageScan scans an image once and re-syncs only around each patch
// (DESIGN.md section 17). These properties pin it against fresh scans: after
// every committed patch its starts and raw offsets equal LinearSweep and
// FindVmfuncBytes of the patched bytes, and the page-by-page scrub equals
// the rescan-per-hit algorithm it replaced, kept below as the reference.

constexpr size_t kCodePage = 4096;

x86::RewriteConfig PageConfig(size_t page, const uint8_t* pattern) {
  x86::RewriteConfig config;
  config.rewrite_page_base = kRwPageBase + page * kCodePage;
  config.rewrite_page_capacity = kCodePage;
  config.pattern = pattern;
  return config;
}

x86::ScanOptions PatternOptions(const uint8_t* pattern) {
  x86::ScanOptions options;
  options.pattern = pattern;
  return options;
}

void ExpectIndexIsFresh(const x86::ImageScan& scan, const std::string& what) {
  ASSERT_EQ(scan.Starts(), x86::LinearSweep(scan.code())) << what;
  ASSERT_EQ(scan.index().raw, x86::FindVmfuncBytes(scan.code(), PatternOptions(scan.pattern())))
      << what;
}

struct PageOutcome {
  sb::ErrorCode code = sb::ErrorCode::kOk;
  std::vector<uint8_t> snippets;
  int nop_replaced = 0;
  int windows_relocated = 0;
};

// The reference: scrubs page `page` of `working` in place the way the
// rescan engine did — a whole-image ScanForVmfunc before every hit, taking
// the first hit the page owns.
PageOutcome ReferenceScrubPage(std::vector<uint8_t>& working, size_t page,
                               const uint8_t* pattern) {
  const x86::RewriteConfig config = PageConfig(page, pattern);
  PageOutcome out;
  x86::RewriteStats stats;
  for (int iter = 0;; ++iter) {
    if (iter == config.max_iterations) {
      out.code = sb::ErrorCode::kInternal;
      break;
    }
    const std::vector<x86::VmfuncHit> hits =
        x86::ScanForVmfunc(working, PatternOptions(pattern));
    const x86::VmfuncHit* owned = nullptr;
    for (const x86::VmfuncHit& hit : hits) {
      if (hit.pattern_off / kCodePage == page) {
        owned = &hit;
        break;
      }
    }
    if (owned == nullptr) {
      break;
    }
    auto patch = x86::RewriteHit(working, out.snippets, config, *owned, stats);
    if (!patch.ok()) {
      out.code = patch.status().code();
      break;
    }
    std::copy(patch->bytes.begin(), patch->bytes.end(),
              working.begin() + static_cast<long>(patch->code_off));
  }
  out.nop_replaced = stats.nop_replaced;
  out.windows_relocated = stats.windows_relocated;
  return out;
}

// Scrubs every page of `code` for `pattern` with the engine and with the
// reference, page by page, and replays each committed patch on a second scan
// that is checked against fresh scans after every single patch. Returns the
// number of patches committed.
size_t CheckEngineAgainstReference(const std::vector<uint8_t>& code, const uint8_t* pattern,
                                   const std::string& name) {
  x86::ImageScan engine(code, PatternOptions(pattern));
  x86::ImageScan replay(code, PatternOptions(pattern));
  std::vector<uint8_t> reference = code;
  // Rewriting never plants a new triple (RewriteHit keeps every edit and its
  // junctions pattern-free), so pages without one at the start stay clean;
  // the reference skips them to keep its quadratic scan affordable.
  std::vector<bool> has_hit((code.size() + kCodePage - 1) / kCodePage, false);
  for (const size_t off : x86::FindVmfuncBytes(code, PatternOptions(pattern))) {
    has_hit[off / kCodePage] = true;
  }
  size_t patches = 0;
  for (size_t page = 0; page < has_hit.size(); ++page) {
    const std::string what = name + " page " + std::to_string(page);
    auto rewritten = x86::RewriteVmfuncPage(engine, page, PageConfig(page, pattern));
    if (!has_hit[page]) {
      EXPECT_TRUE(rewritten.ok() && rewritten->patches.empty()) << what;
      continue;
    }
    const PageOutcome expected = ReferenceScrubPage(reference, page, pattern);
    EXPECT_EQ(rewritten.status().code(), expected.code) << what;
    if (!rewritten.ok() || expected.code != sb::ErrorCode::kOk) {
      return patches;  // Both engines stop at the same failure.
    }
    EXPECT_EQ(rewritten->snippets, expected.snippets) << what;
    EXPECT_EQ(rewritten->stats.nop_replaced, expected.nop_replaced) << what;
    EXPECT_EQ(rewritten->stats.windows_relocated, expected.windows_relocated) << what;
    for (const x86::PagePatch& patch : rewritten->patches) {
      replay.Patch(patch.code_off, patch.bytes);
      ExpectIndexIsFresh(replay, what + " after patch @" + std::to_string(patch.code_off));
      ++patches;
    }
    EXPECT_TRUE(std::equal(engine.code().begin(), engine.code().end(), reference.begin(),
                           reference.end()))
        << what;
  }
  return patches;
}

// Random bytes with `triples` gate patterns (of either kind) injected.
std::vector<uint8_t> RandomStreamWithTriples(sb::Rng& rng, size_t size, int triples) {
  std::vector<uint8_t> bytes(size);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int i = 0; i < triples; ++i) {
    const uint8_t* pattern = rng.OneIn(2) ? x86::kVmfuncBytes : x86::kWrpkruBytes;
    std::copy(pattern, pattern + 3, bytes.begin() + static_cast<long>(rng.Below(size - 3)));
  }
  return bytes;
}

TEST(ScanEngineProperty, Table6CorpusScrubsLikeTheRescanEngine) {
  size_t patches = 0;
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0x5eed)) {
    for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
      patches += CheckEngineAgainstReference(program.code, pattern, program.name);
    }
  }
  EXPECT_GE(patches, 1u);  // GIMP-2.8's planted occurrence at least.
}

TEST(ScanEngineProperty, GeneratedProgramsScrubLikeTheRescanEngine) {
  size_t patches = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const std::vector<uint8_t> plain = apps::GenerateProgram(rng, 8 * kCodePage);
    const std::vector<uint8_t> planted =
        apps::GenerateProgramWithCallImmPattern(rng, 8 * kCodePage);
    for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
      const std::string tag =
          std::to_string(seed) + (pattern == x86::kVmfuncBytes ? " vmfunc" : " wrpkru");
      patches += CheckEngineAgainstReference(plain, pattern, "program " + tag);
      patches += CheckEngineAgainstReference(planted, pattern, "call-imm program " + tag);
    }
  }
  EXPECT_GE(patches, 200u);  // Every call-imm program commits at least one.
}

TEST(ScanEngineProperty, RandomStreamsWithInjectedTriplesScrubLikeTheRescanEngine) {
  size_t patches = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sb::Rng rng(seed * 7919 + 3);
    const std::vector<uint8_t> bytes = RandomStreamWithTriples(rng, 4 * kCodePage, 12);
    for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
      patches += CheckEngineAgainstReference(bytes, pattern, "stream " + std::to_string(seed));
    }
  }
  EXPECT_GE(patches, 200u);
}

// Patch() on arbitrary edits, not just rewrite windows: random lengths at
// random offsets, including the first and last bytes of the image.
TEST(ScanEngineProperty, ArbitraryPatchesKeepTheIndexFresh) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sb::Rng rng(seed * 104729 + 11);
    const uint8_t* pattern = seed % 2 == 0 ? x86::kVmfuncBytes : x86::kWrpkruBytes;
    x86::ImageScan scan(RandomStreamWithTriples(rng, 2 * kCodePage, 8), PatternOptions(pattern));
    ExpectIndexIsFresh(scan, "seed " + std::to_string(seed));
    for (int i = 0; i < 20; ++i) {
      const size_t len = 1 + rng.Below(24);
      const size_t off = i == 0 ? 0 : i == 1 ? scan.code().size() - len
                                             : rng.Below(scan.code().size() - len + 1);
      std::vector<uint8_t> bytes =
          rng.OneIn(3) ? std::vector<uint8_t>(len, 0x90) : RandomStreamWithTriples(rng, len + 3, 1);
      bytes.resize(len);
      scan.Patch(off, bytes);
      ExpectIndexIsFresh(scan, "seed " + std::to_string(seed) + " patch " + std::to_string(i));
    }
  }
}

// ---- The length-only decoder == Decode's lengths ----
//
// InsnLength reads the same tables as Decode; these pin it to Decode's
// length at every offset, valid or not, including inputs cut mid-instruction.

void ExpectLengthsMatchDecode(std::span<const uint8_t> code, const std::string& what) {
  for (size_t off = 0; off <= code.size(); ++off) {
    ASSERT_EQ(x86::InsnLength(code, off), x86::Decode(code, off).length)
        << what << " offset " << off << " of " << code.size();
  }
}

TEST(LengthDecoderProperty, InsnLengthMatchesDecodeOnTable6Corpus) {
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0x5eed)) {
    ExpectLengthsMatchDecode(program.code, program.name);
  }
}

TEST(LengthDecoderProperty, InsnLengthMatchesDecodeOnGeneratedPrograms) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
    ExpectLengthsMatchDecode(apps::GenerateProgram(rng, 2 * kPageSize),
                             "program " + std::to_string(seed));
    ExpectLengthsMatchDecode(apps::GenerateProgramWithCallImmPattern(rng, 2 * kPageSize),
                             "call-imm program " + std::to_string(seed));
  }
}

// Random streams built from the decoder's hard cases: runs of 15 or more
// legacy-prefix and REX bytes (past the 15-byte limit), VEX C4/C5 with any
// map byte, 0F 38 / 0F 3A escapes, and every truncation of the tail.
TEST(LengthDecoderProperty, InsnLengthMatchesDecodeOnPrefixRunsVexAndTruncatedTails) {
  static const uint8_t kPrefixes[] = {0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x2e, 0x36, 0x3e,
                                      0x26, 0x64, 0x65, 0x40, 0x48, 0x4f};
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sb::Rng rng(seed * 6364136223846793005ULL + 17);
    std::vector<uint8_t> bytes;
    while (bytes.size() < 2048) {
      switch (rng.Below(5)) {
        case 0: {  // A prefix run of 15..20 bytes, then an opcode.
          const size_t run = 15 + rng.Below(6);
          for (size_t i = 0; i < run; ++i) {
            bytes.push_back(kPrefixes[rng.Below(sizeof(kPrefixes))]);
          }
          bytes.push_back(static_cast<uint8_t>(rng.Next()));
          break;
        }
        case 1:  // VEX: C4 with a random map byte, or C5.
          bytes.push_back(rng.OneIn(2) ? 0xc4 : 0xc5);
          break;
        case 2:  // Two- and three-byte opcode maps.
          bytes.push_back(0x0f);
          if (rng.OneIn(2)) {
            bytes.push_back(rng.OneIn(2) ? 0x38 : 0x3a);
          }
          break;
        default:
          break;
      }
      for (size_t i = rng.Below(8); i > 0; --i) {
        bytes.push_back(static_cast<uint8_t>(rng.Next()));
      }
    }
    const std::string what = "stream " + std::to_string(seed);
    ExpectLengthsMatchDecode(bytes, what);
    // Truncated tails: the last instructions cut at every length.
    for (size_t cut = 1; cut <= 16; ++cut) {
      const std::span<const uint8_t> head(bytes.data(), bytes.size() - cut);
      for (size_t off = head.size() >= 16 ? head.size() - 16 : 0; off <= head.size(); ++off) {
        ASSERT_EQ(x86::InsnLength(head, off), x86::Decode(head, off).length)
            << what << " cut " << cut << " offset " << off;
      }
    }
  }
}

// ---- The speculative page-parallel sweep == the serial sweep ----
//
// ImageScan sweeps every chunk from its own first byte (on the pool when
// there is one) and stitches the chunks together serially (DESIGN.md
// section 17). Whatever the chunking and the pool, its index must be the
// one-sweep answer: LinearSweep's starts and FindVmfuncBytes' offsets.

void ExpectScanIsTheSerialSweep(const std::vector<uint8_t>& code, sb::ThreadPool& pool,
                                const std::string& what) {
  const std::vector<size_t> sweep = x86::LinearSweep(code);
  const std::vector<size_t> raw = x86::FindVmfuncBytes(code);
  for (const size_t chunk : {size_t{257}, size_t{4095}, size_t{4096}, size_t{65536}}) {
    x86::ScanOptions options;
    options.chunk_bytes = chunk;
    const x86::ImageScan serial(code, options);
    options.pool = &pool;
    const x86::ImageScan pooled(code, options);
    const std::string at = what + " chunk=" + std::to_string(chunk);
    ASSERT_EQ(serial.Starts(), sweep) << at;
    ASSERT_EQ(serial.index().raw, raw) << at;
    ASSERT_EQ(pooled.index().start_bits, serial.index().start_bits) << at;
    ASSERT_EQ(pooled.index().raw, raw) << at;
  }
}

TEST(SpeculativeSweepProperty, PooledScanIsTheSerialSweepOnTable6Corpus) {
  sb::ThreadPool pool(4);
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0x5eed)) {
    ExpectScanIsTheSerialSweep(program.code, pool, program.name);
  }
}

TEST(SpeculativeSweepProperty, PooledScanIsTheSerialSweepOnGeneratedAndRandomImages) {
  sb::ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 100; ++seed) {
    sb::Rng rng(seed * 0x2545f4914f6cdd1dULL + 9);
    const std::string tag = std::to_string(seed);
    ExpectScanIsTheSerialSweep(apps::GenerateProgramWithCallImmPattern(rng, 16 * kCodePage),
                               pool, "call-imm program " + tag);
    // Random bytes at sizes that are not a multiple of 64.
    ExpectScanIsTheSerialSweep(RandomStreamWithTriples(rng, 3 * kCodePage + 1 + rng.Below(63), 4),
                               pool, "stream " + tag);
  }
}

TEST(SpeculativeSweepProperty, ImagesShorterThanOneChunk) {
  sb::ThreadPool pool(4);
  sb::Rng rng(0x5eed);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{15}, size_t{63},
                            size_t{64}, size_t{65}, size_t{256}, size_t{257}, size_t{4000}}) {
    ExpectScanIsTheSerialSweep(RandomStreamWithTriples(rng, size + 4, 1), pool,
                               "size " + std::to_string(size + 4));
    std::vector<uint8_t> bytes(size);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ExpectScanIsTheSerialSweep(bytes, pool, "random size " + std::to_string(size));
  }
}

// Adversarial: 0xB8 is `mov eax, imm32` (5 bytes), so a run of them decodes
// in one of five phases and two sweeps in different phases never meet. A
// 4096-byte chunk is entered at phase 4096 mod 5 = 1 by its own speculative
// sweep but at phase 0 by the true one, so no chunk after the first
// re-synchronises before its end: the stitch must re-sweep every one of them
// and carry its own exit, not the speculative one, into the next chunk.
TEST(SpeculativeSweepProperty, ChunksThatNeverResynchroniseAreResweptByTheStitch) {
  sb::ThreadPool pool(4);
  std::vector<uint8_t> code(16 * kCodePage + 7, 0xb8);
  std::copy(x86::kVmfuncBytes, x86::kVmfuncBytes + 3, code.begin() + 5 * kCodePage + 1);
  ExpectScanIsTheSerialSweep(code, pool, "mov run");
  // The same run behind a prefix that shifts the true phase by one byte.
  code[0] = 0x66;
  ExpectScanIsTheSerialSweep(code, pool, "shifted mov run");
}

// ---- Executor determinism ----

TEST(ExecutorProperty, RunsAreDeterministic) {
  auto run_once = [] {
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 1 * kGiB;
    hw::Machine machine(mc);
    sim::Executor exec(machine);
    sim::FifoResource lock;
    sb::Rng rng(42);
    for (int t = 0; t < 4; ++t) {
      const uint64_t step = 500 + rng.Below(1000);
      exec.AddThread("t" + std::to_string(t), t, [&lock, step](sim::SimThread& thread) {
        const uint64_t start = lock.Acquire(thread.core().cycles());
        thread.core().SyncClockTo(start + step);
        lock.Release(thread.core().cycles());
        return thread.iterations() < 19;
      });
    }
    exec.RunToCompletion();
    return exec.max_time();
  };
  const uint64_t a = run_once();
  const uint64_t b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

}  // namespace
