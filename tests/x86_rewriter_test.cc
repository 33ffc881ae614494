// Rewriter tests: every Table 3 case, plus randomized equivalence checking —
// original and rewritten programs must reach identical architectural state,
// and the rewritten bytes must never contain (or execute) VMFUNC.

#include "src/x86/rewriter.h"

#include <gtest/gtest.h>

#include <set>

#include "src/base/rng.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"
#include "src/x86/emulator.h"
#include "src/x86/rewrite_cache.h"
#include "src/x86/scanner.h"

namespace x86 {
namespace {

constexpr uint64_t kCodeBase = 0x400000;
constexpr uint64_t kPageBase = 0x1000;
constexpr uint64_t kDataBase = 0x10000;
constexpr uint64_t kDataLen = 0x10000;

RewriteConfig Config() {
  RewriteConfig config;
  config.code_base = kCodeBase;
  config.rewrite_page_base = kPageBase;
  return config;
}

struct RunResult {
  StopInfo stop;
  CpuState state;
  std::vector<uint8_t> data;
};

RunResult RunWith(const std::vector<uint8_t>& code, const std::vector<uint8_t>& page,
                  const CpuState& init) {
  Emulator emu;
  emu.LoadBytes(kCodeBase, code);
  if (!page.empty()) {
    emu.LoadBytes(kPageBase, page);
  }
  emu.state() = init;
  emu.state().rip = kCodeBase;
  emu.state().reg(Reg::kRsp) = Emulator::kInitialRsp;
  RunResult r;
  r.stop = emu.Run(100000);
  r.state = emu.state();
  r.data.resize(kDataLen);
  for (uint64_t i = 0; i < kDataLen; ++i) {
    r.data[i] = emu.ReadByte(kDataBase + i);
  }
  return r;
}

CpuState DefaultInit() {
  CpuState s;
  s.reg(Reg::kRax) = 0x1111;
  s.reg(Reg::kRbx) = 0x2222;
  s.reg(Reg::kRcx) = 0x3333;
  s.reg(Reg::kRdx) = 0x4444;
  s.reg(Reg::kRsi) = kDataBase + 0x100;
  s.reg(Reg::kRdi) = kDataBase;
  s.reg(Reg::kR8) = 0x8888;
  s.reg(Reg::kR9) = 0x9999;
  return s;
}

// Rewrites `code` and checks: pattern-free output, identical final state.
void CheckEquivalence(const std::vector<uint8_t>& code, bool compare_flags = true) {
  auto rewritten = RewriteVmfunc(code, Config());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(FindVmfuncBytes(rewritten->code).empty());
  EXPECT_TRUE(FindVmfuncBytes(rewritten->rewrite_page).empty());
  ASSERT_EQ(rewritten->code.size(), code.size());

  const CpuState init = DefaultInit();
  const RunResult orig = RunWith(code, {}, init);
  const RunResult rewr = RunWith(rewritten->code, rewritten->rewrite_page, init);

  EXPECT_EQ(rewr.stop.vmfunc_count, 0u) << "rewritten code executed VMFUNC";
  ASSERT_EQ(orig.stop.reason, StopReason::kRet) << "original program did not finish";
  EXPECT_EQ(rewr.stop.reason, StopReason::kRet);
  for (int r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(orig.state.regs[r], rewr.state.regs[r]) << "reg " << RegName(static_cast<Reg>(r));
  }
  if (compare_flags) {
    EXPECT_EQ(orig.state.flags, rewr.state.flags);
  }
  EXPECT_EQ(orig.data, rewr.data);
}

TEST(Rewriter, CleanCodeUntouched) {
  Assembler a;
  a.MovRI64(Reg::kRax, 7);
  a.Ret();
  const std::vector<uint8_t> code = a.Take();
  auto result = RewriteVmfunc(code, Config());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->code, code);
  EXPECT_TRUE(result->rewrite_page.empty());
  EXPECT_EQ(result->stats.nop_replaced, 0);
}

TEST(Rewriter, C1TrueVmfuncBecomesNops) {
  Assembler a;
  a.MovRI64(Reg::kRax, 7);
  a.Vmfunc();
  a.Ret();
  auto result = RewriteVmfunc(a.Take(), Config());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.nop_replaced, 1);
  EXPECT_TRUE(FindVmfuncBytes(result->code).empty());

  // The rewritten program runs to completion without executing VMFUNC.
  const RunResult r = RunWith(result->code, result->rewrite_page, DefaultInit());
  EXPECT_EQ(r.stop.reason, StopReason::kRet);
  EXPECT_EQ(r.stop.vmfunc_count, 0u);
  EXPECT_EQ(r.state.reg(Reg::kRax), 7u);
}

TEST(Rewriter, Table3Row2ModrmCase) {
  // imul rcx, [rdi], 0xD401 — ModRM byte is 0x0F, immediate starts 01 D4.
  std::vector<uint8_t> code = {0x48, 0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());

  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInModrm);
  CheckEquivalence(code, /*compare_flags=*/false);  // imul flags approximate.
}

TEST(Rewriter, Table3Row3SibCase) {
  // lea rbx, [rdi + rcx*1 + 0xD401] — SIB byte is 0x0F.
  std::vector<uint8_t> code = {0x48, 0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());

  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInSib);
  CheckEquivalence(code);
}

TEST(Rewriter, Table3Row4DisplacementCase) {
  // add rbx, [rdi + 0xD4010F] — displacement contains the pattern. Seed the
  // data so the load is well-defined: rdi = kDataBase, so plant a value at
  // kDataBase + 0xD4010F... too far; use a negative-ish trick instead: write
  // through a prologue that stores at [rdi + 0xD4010F] first. Keep it simple:
  // the load reads zeroes, which is still a defined value in the emulator.
  std::vector<uint8_t> code = {0x48, 0x03, 0x9f, 0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());

  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInDisp);
  CheckEquivalence(code, /*compare_flags=*/false);  // add-split may alter CF/OF.
}

TEST(Rewriter, Table3Row5ImmediateAdd) {
  // add rax, 0x00D4010F (paper row 5).
  Assembler a;
  a.AddRI(Reg::kRax, 0x00d4010f);
  a.MovRR64(Reg::kRbx, Reg::kRax);
  a.Ret();
  const std::vector<uint8_t> code = a.Take();
  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInImm);
  CheckEquivalence(code, /*compare_flags=*/false);
}

TEST(Rewriter, ImmediateOrAndXorSub) {
  for (const int which : {0, 1, 2, 3}) {
    Assembler a;
    switch (which) {
      case 0:
        a.OrRI(Reg::kRbx, 0x00d4010f);
        break;
      case 1:
        a.AndRI(Reg::kRbx, 0x00d4010f);
        break;
      case 2:
        a.XorRI(Reg::kRbx, 0x00d4010f);
        break;
      case 3:
        a.SubRI(Reg::kRbx, 0x00d4010f);
        break;
    }
    a.Ret();
    CheckEquivalence(a.Take(), /*compare_flags=*/false);
  }
}

TEST(Rewriter, ImmediateMovRegister) {
  // mov eax, 0x00D4010F.
  Assembler a;
  a.MovRI32(Reg::kRax, 0x00d4010f);
  a.Ret();
  CheckEquivalence(a.Take());  // mov sets no flags; must be exactly preserved.
}

TEST(Rewriter, ImmediateMovImm64) {
  // mov rax, imm64 whose bytes contain the pattern.
  Assembler a;
  a.MovRI64(Reg::kRax, 0x0000d4010f000000ULL);
  a.Ret();
  CheckEquivalence(a.Take());
}

TEST(Rewriter, ImmediateMovToMemory) {
  // mov qword [rdi + 8], 0x00D4010F.
  std::vector<uint8_t> code = {0x48, 0xc7, 0x87, 0x08, 0x00, 0x00, 0x00,
                               0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());
  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInImm);
  CheckEquivalence(code);
}

TEST(Rewriter, ImmediateCmpPreservesFlagsExactly) {
  // cmp rax, 0x00D4010F followed by storing the comparison via jcc.
  Assembler a;
  a.CmpRI(Reg::kRax, 0x00d4010f);
  a.Ret();
  CheckEquivalence(a.Take(), /*compare_flags=*/true);
}

TEST(Rewriter, ImmediateTestPreservesFlagsExactly) {
  // test rbx, 0x00D4010F -> 48 f7 c3 0f 01 d4 00
  std::vector<uint8_t> code = {0x48, 0xf7, 0xc3, 0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());
  CheckEquivalence(code, /*compare_flags=*/true);
}

TEST(Rewriter, ImmediateImul) {
  // imul rbx, rcx, 0x00D4010F.
  Assembler a;
  a.ImulRRI(Reg::kRbx, Reg::kRcx, 0x00d4010f);
  a.Ret();
  CheckEquivalence(a.Take(), /*compare_flags=*/false);
}

TEST(Rewriter, ImmediatePushPreservesStackAndFlags) {
  // push 0x00D4010F — Table 3 row 5 for a stack-writing instruction.
  std::vector<uint8_t> code = {0x68, 0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.PopR(Reg::kRbx);  // The pushed value must round-trip.
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());
  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInImm);
  CheckEquivalence(code, /*compare_flags=*/true);
}

TEST(Rewriter, DisplacementSplitWithRspBase) {
  // add rbx, [rsp + 0xD4010F] — the scratch copy of RSP must compensate for
  // the transform's own push.
  std::vector<uint8_t> code = {0x48, 0x03, 0x9c, 0x24, 0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());
  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kInDisp);
  CheckEquivalence(code, /*compare_flags=*/false);
}

TEST(Rewriter, SibCaseWithIndexScaling) {
  // mov rbx, [rdi + rcx*8 + 0xD401] with SIB = 0xCF? We need SIB byte 0x0F:
  // scale=0, index=rcx, base=rdi. Use an 8B-scaled variant via the
  // displacement path instead: lea rbx, [rdi + rcx*1 + 0xD401] is covered
  // elsewhere; here exercise index substitution when there is no base:
  // lea rbx, [rcx*2 + 0xD4010F] -> SIB no-base form, pattern in disp.
  std::vector<uint8_t> code = {0x48, 0x8d, 0x1c, 0x4d, 0x0f, 0x01, 0xd4, 0x00};
  Assembler tail;
  tail.Ret();
  code.insert(code.end(), tail.bytes().begin(), tail.bytes().end());
  const Insn insn = Decode(code, 0);
  ASSERT_TRUE(insn.valid);
  ASSERT_TRUE(insn.has_sib);
  CheckEquivalence(code, /*compare_flags=*/false);
}

TEST(Rewriter, C2SpanningInstructions) {
  // mov eax, 0x0F000000 ends with 0F; add esp, edx is 01 D4. The 32-bit add
  // zero-extends RSP (real x86 semantics), so RSP is saved and restored
  // around the gadget.
  Assembler a;
  a.MovRR64(Reg::kR9, Reg::kRsp);
  a.MovRI32(Reg::kRdx, 0);
  a.MovRI32(Reg::kRax, 0x0f000000);
  a.Raw({0x01, 0xd4});  // add esp, edx
  a.MovRR64(Reg::kRsp, Reg::kR9);
  a.MovRR64(Reg::kRbx, Reg::kRax);
  a.Ret();
  const std::vector<uint8_t> code = a.Take();
  const auto hits = ScanForVmfunc(code);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, VmfuncOverlap::kSpans);
  CheckEquivalence(code, /*compare_flags=*/false);
}

TEST(Rewriter, JumpLikeImmediateRetargeted) {
  // call rel32 where the displacement bytes contain the pattern. The call
  // target is far outside the program, so only verify statically that the
  // relocated call preserves the absolute target.
  Assembler a;
  const size_t call_at = a.size();
  a.CallRel32(0x00d4010f);
  a.Ret();
  const std::vector<uint8_t> code = a.Take();
  const uint64_t abs_target = kCodeBase + call_at + 5 + 0x00d4010f;

  auto result = RewriteVmfunc(code, Config());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(FindVmfuncBytes(result->code).empty());
  EXPECT_TRUE(FindVmfuncBytes(result->rewrite_page).empty());

  // Find the relocated E8 on the rewrite page and check its target.
  bool found = false;
  const std::vector<uint8_t>& page = result->rewrite_page;
  for (size_t off : LinearSweep(page)) {
    const Insn insn = Decode(page, off);
    if (insn.valid && insn.mnemonic == Mnemonic::kCallRel) {
      int32_t rel = 0;
      for (int i = 0; i < 4; ++i) {
        rel |= static_cast<int32_t>(page[off + 1 + static_cast<size_t>(i)]) << (8 * i);
      }
      EXPECT_EQ(kPageBase + off + 5 + static_cast<uint64_t>(static_cast<int64_t>(rel)),
                abs_target);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "relocated call not found on rewrite page";
}

TEST(Rewriter, BranchOverOffendingInstruction) {
  // cmp rax, 1; je skip; add rax, 0xD4010F; skip: mov rbx, rax; ret.
  Assembler b;
  b.CmpRI(Reg::kRax, 0x1111);  // equal for DefaultInit (rax == 0x1111)
  const size_t jcc_at = b.size();
  b.JccRel8(0x4, 0);
  b.AddRI(Reg::kRax, 0x00d4010f);
  const size_t skip = b.size();
  b.MovRR64(Reg::kRbx, Reg::kRax);
  b.Ret();
  std::vector<uint8_t> code = b.Take();
  code[jcc_at + 1] = static_cast<uint8_t>(skip - (jcc_at + 2));
  CheckEquivalence(code, /*compare_flags=*/false);
}

TEST(Rewriter, MultipleOccurrences) {
  Assembler a;
  a.AddRI(Reg::kRax, 0x00d4010f);
  a.Vmfunc();
  a.OrRI(Reg::kRbx, 0x00d4010f);
  a.MovRI32(Reg::kRcx, 0x00d4010f);
  a.Ret();
  auto result = RewriteVmfunc(a.Take(), Config());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(FindVmfuncBytes(result->code).empty());
  EXPECT_TRUE(FindVmfuncBytes(result->rewrite_page).empty());
  EXPECT_EQ(result->stats.nop_replaced, 1);
  EXPECT_GE(result->stats.windows_relocated, 3);
}

// ---- The rewrite cache's key hash ----

// HashBytes keys the rewrite cache and the scan memo: a one-byte change at
// any offset of a page plus its 64-byte context on each side hashes apart,
// and so does every length through the sub-word tail, even of zero bytes.
TEST(HashBytes, OneByteChangesAndShortLengthsHashApart) {
  std::vector<uint8_t> page(4096 + 2 * 64);
  sb::Rng rng(0x5eed);
  for (uint8_t& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::set<uint64_t> seen = {HashBytes(page)};
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] ^= 0x01;
    EXPECT_TRUE(seen.insert(HashBytes(page)).second) << "offset " << i;
    page[i] ^= 0x01;
  }
  const std::vector<uint8_t> zeros(24, 0);
  std::set<uint64_t> by_length;
  for (size_t len = 0; len <= 24; ++len) {
    EXPECT_TRUE(by_length.insert(HashBytes({zeros.data(), len})).second) << "length " << len;
    if (len > 0) {  // Both are the empty input at length 0.
      EXPECT_TRUE(by_length.insert(HashBytes({page.data(), len})).second) << "length " << len;
    }
  }
}

// ---- Randomized equivalence sweep ----

class RewriterPropertyTest : public ::testing::TestWithParam<int> {};

// Generates a random program, planting a patterned gadget with high
// probability, and checks rewrite equivalence.
TEST_P(RewriterPropertyTest, RandomProgramEquivalence) {
  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1);
  static const Reg kPool[] = {Reg::kRax, Reg::kRbx, Reg::kRcx,
                              Reg::kRdx, Reg::kRsi, Reg::kR8};
  auto rand_reg = [&] { return kPool[rng.Below(6)]; };
  auto rand_imm = [&] { return static_cast<int32_t>(rng.Below(0xffff)); };

  Assembler a;
  const int n_ops = 4 + static_cast<int>(rng.Below(12));
  const int plant_at = static_cast<int>(rng.Below(static_cast<uint64_t>(n_ops)));
  for (int i = 0; i < n_ops; ++i) {
    if (i == plant_at) {
      switch (rng.Below(8)) {
        case 0:
          a.AddRI(rand_reg(), 0x00d4010f);
          break;
        case 1:
          a.OrRI(rand_reg(), 0x00d4010f);
          break;
        case 2:
          a.XorRI(rand_reg(), 0x00d4010f);
          break;
        case 3:
          a.MovRI32(rand_reg(), 0x00d4010f);
          break;
        case 4:
          a.MovRI64(rand_reg(), 0x00d4010f00ULL);
          break;
        case 5:  // imul rcx, [rdi], 0xD401 (ModRM case)
          a.Raw({0x48, 0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00});
          break;
        case 6:  // lea rbx, [rdi + rcx*1 + 0xD401] (SIB case)
          a.Raw({0x48, 0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00});
          break;
        case 7:  // spans case (32-bit add esp, edx zero-extends RSP: save it)
          a.MovRR64(Reg::kR9, Reg::kRsp);
          a.MovRI32(Reg::kRdx, 0);
          a.MovRI32(Reg::kRax, 0x0f000000);
          a.Raw({0x01, 0xd4});
          a.MovRR64(Reg::kRsp, Reg::kR9);
          break;
      }
      continue;
    }
    switch (rng.Below(12)) {
      case 0:
        a.MovRI64(rand_reg(), rng.Below(1u << 30));
        break;
      case 1:
        a.AddRR(rand_reg(), rand_reg());
        break;
      case 2:
        a.SubRI(rand_reg(), rand_imm());
        break;
      case 3:
        a.XorRR(rand_reg(), rand_reg());
        break;
      case 4:
        a.MovMR64(Reg::kRdi, static_cast<int32_t>(rng.Below(0x100) * 8), rand_reg());
        break;
      case 5:
        a.MovRM64(rand_reg(), Reg::kRdi, static_cast<int32_t>(rng.Below(0x100) * 8));
        break;
      case 6:
        a.Lea(rand_reg(), Reg::kRdi, static_cast<int>(Reg::kRcx), 2, rand_imm());
        break;
      case 7:
        a.ImulRRI(rand_reg(), rand_reg(), rand_imm());
        break;
      case 8:
        a.ShlRI(rand_reg(), static_cast<uint8_t>(rng.Below(16)));
        break;
      case 9:
        a.ShrRI(rand_reg(), static_cast<uint8_t>(rng.Below(16)));
        break;
      case 10:
        a.IncR(rand_reg());
        break;
      case 11:
        a.NegR(rand_reg());
        break;
    }
  }
  a.Ret();
  CheckEquivalence(a.Take(), /*compare_flags=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriterPropertyTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace x86
