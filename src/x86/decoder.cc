#include "src/x86/decoder.h"

#include <algorithm>
#include <array>

#include "src/base/logging.h"

namespace x86 {
namespace {

constexpr size_t kMaxInsnLen = 15;

enum class ImmKind : uint8_t {
  kNone,
  kImm8,
  kImm16,
  kImmZ,        // 4 bytes, or 2 with the 0x66 prefix.
  kImmVorZ,     // B8+r: 4 bytes (2 with 0x66), 8 with REX.W.
  kMoffs,       // 8 bytes (4 with the 0x67 prefix).
  kImm16Imm8,   // ENTER.
  kRel8,
  kRel32,
  kGroupF6,     // imm8 iff modrm.reg is 0 or 1.
  kGroupF7,     // immz iff modrm.reg is 0 or 1.
};

struct OpInfo {
  bool valid = false;
  bool modrm = false;
  ImmKind imm = ImmKind::kNone;
};

struct Tables {
  std::array<OpInfo, 256> one;   // single-byte opcodes
  std::array<OpInfo, 256> two;   // 0F xx
};

constexpr Tables BuildTables() {
  Tables t{};
  auto set = [](std::array<OpInfo, 256>& map, int op, bool modrm, ImmKind imm) {
    map[static_cast<size_t>(op)] = OpInfo{true, modrm, imm};
  };
  auto set_range = [&](std::array<OpInfo, 256>& map, int lo, int hi, bool modrm, ImmKind imm) {
    for (int op = lo; op <= hi; ++op) {
      set(map, op, modrm, imm);
    }
  };

  // ---- One-byte map ----
  // Arithmetic blocks: add/or/adc/sbb/and/sub/xor/cmp at 0x00,0x08,...,0x38.
  for (int base = 0x00; base <= 0x38; base += 8) {
    set_range(t.one, base + 0, base + 3, true, ImmKind::kNone);
    set(t.one, base + 4, false, ImmKind::kImm8);
    set(t.one, base + 5, false, ImmKind::kImmZ);
    // +6/+7 are invalid in 64-bit mode.
  }
  set_range(t.one, 0x50, 0x5f, false, ImmKind::kNone);  // push/pop r64
  set(t.one, 0x63, true, ImmKind::kNone);               // movsxd
  set(t.one, 0x68, false, ImmKind::kImmZ);              // push immz
  set(t.one, 0x69, true, ImmKind::kImmZ);               // imul r, rm, immz
  set(t.one, 0x6a, false, ImmKind::kImm8);              // push imm8
  set(t.one, 0x6b, true, ImmKind::kImm8);               // imul r, rm, imm8
  set_range(t.one, 0x6c, 0x6f, false, ImmKind::kNone);  // ins/outs
  set_range(t.one, 0x70, 0x7f, false, ImmKind::kRel8);  // jcc rel8
  set(t.one, 0x80, true, ImmKind::kImm8);
  set(t.one, 0x81, true, ImmKind::kImmZ);
  set(t.one, 0x83, true, ImmKind::kImm8);
  set_range(t.one, 0x84, 0x8b, true, ImmKind::kNone);  // test/xchg/mov
  set(t.one, 0x8c, true, ImmKind::kNone);
  set(t.one, 0x8d, true, ImmKind::kNone);  // lea
  set(t.one, 0x8e, true, ImmKind::kNone);
  set(t.one, 0x8f, true, ImmKind::kNone);              // pop rm
  set_range(t.one, 0x90, 0x99, false, ImmKind::kNone); // xchg/nop/cwde/cdq
  set(t.one, 0x9b, false, ImmKind::kNone);
  set_range(t.one, 0x9c, 0x9f, false, ImmKind::kNone);  // pushf/popf/sahf/lahf
  set_range(t.one, 0xa0, 0xa3, false, ImmKind::kMoffs); // mov moffs
  set_range(t.one, 0xa4, 0xa7, false, ImmKind::kNone);  // movs/cmps
  set(t.one, 0xa8, false, ImmKind::kImm8);              // test al, imm8
  set(t.one, 0xa9, false, ImmKind::kImmZ);              // test eax, immz
  set_range(t.one, 0xaa, 0xaf, false, ImmKind::kNone);  // stos/lods/scas
  set_range(t.one, 0xb0, 0xb7, false, ImmKind::kImm8);  // mov r8, imm8
  set_range(t.one, 0xb8, 0xbf, false, ImmKind::kImmVorZ);
  set(t.one, 0xc0, true, ImmKind::kImm8);  // shift group
  set(t.one, 0xc1, true, ImmKind::kImm8);
  set(t.one, 0xc2, false, ImmKind::kImm16);  // ret imm16
  set(t.one, 0xc3, false, ImmKind::kNone);   // ret
  set(t.one, 0xc6, true, ImmKind::kImm8);    // mov rm8, imm8
  set(t.one, 0xc7, true, ImmKind::kImmZ);    // mov rm, immz
  set(t.one, 0xc8, false, ImmKind::kImm16Imm8);  // enter
  set(t.one, 0xc9, false, ImmKind::kNone);       // leave
  set(t.one, 0xca, false, ImmKind::kImm16);      // retf imm16
  set(t.one, 0xcb, false, ImmKind::kNone);
  set(t.one, 0xcc, false, ImmKind::kNone);  // int3
  set(t.one, 0xcd, false, ImmKind::kImm8);  // int imm8
  set(t.one, 0xcf, false, ImmKind::kNone);  // iret
  set_range(t.one, 0xd0, 0xd3, true, ImmKind::kNone);  // shift group
  set(t.one, 0xd7, false, ImmKind::kNone);             // xlat
  set_range(t.one, 0xd8, 0xdf, true, ImmKind::kNone);  // x87
  set_range(t.one, 0xe0, 0xe3, false, ImmKind::kRel8); // loop/jcxz
  set(t.one, 0xe4, false, ImmKind::kImm8);             // in
  set(t.one, 0xe5, false, ImmKind::kImm8);
  set(t.one, 0xe6, false, ImmKind::kImm8);  // out
  set(t.one, 0xe7, false, ImmKind::kImm8);
  set(t.one, 0xe8, false, ImmKind::kRel32);  // call rel32
  set(t.one, 0xe9, false, ImmKind::kRel32);  // jmp rel32
  set(t.one, 0xeb, false, ImmKind::kRel8);   // jmp rel8
  set_range(t.one, 0xec, 0xef, false, ImmKind::kNone);  // in/out dx
  set(t.one, 0xf1, false, ImmKind::kNone);              // int1
  set(t.one, 0xf4, false, ImmKind::kNone);              // hlt
  set(t.one, 0xf5, false, ImmKind::kNone);              // cmc
  set(t.one, 0xf6, true, ImmKind::kGroupF6);
  set(t.one, 0xf7, true, ImmKind::kGroupF7);
  set_range(t.one, 0xf8, 0xfd, false, ImmKind::kNone);  // clc..std
  set(t.one, 0xfe, true, ImmKind::kNone);               // inc/dec group
  set(t.one, 0xff, true, ImmKind::kNone);               // inc/dec/call/jmp/push group

  // ---- Two-byte map (0F xx): default ModRM, explicit exceptions ----
  for (int op = 0; op <= 0xff; ++op) {
    set(t.two, op, true, ImmKind::kNone);
  }
  auto no_modrm = [&](int op) { set(t.two, op, false, ImmKind::kNone); };
  no_modrm(0x05);  // syscall
  no_modrm(0x06);  // clts
  no_modrm(0x07);  // sysret
  no_modrm(0x08);  // invd
  no_modrm(0x09);  // wbinvd
  no_modrm(0x0b);  // ud2
  no_modrm(0x30);  // wrmsr
  no_modrm(0x31);  // rdtsc
  no_modrm(0x32);  // rdmsr
  no_modrm(0x33);  // rdpmc
  no_modrm(0x34);  // sysenter
  no_modrm(0x35);  // sysexit
  no_modrm(0x77);  // emms
  no_modrm(0xa0);  // push fs
  no_modrm(0xa1);  // pop fs
  no_modrm(0xa2);  // cpuid
  no_modrm(0xa8);  // push gs
  no_modrm(0xa9);  // pop gs
  no_modrm(0xaa);  // rsm
  for (int op = 0xc8; op <= 0xcf; ++op) {
    no_modrm(op);  // bswap
  }
  for (int op = 0x80; op <= 0x8f; ++op) {
    set(t.two, op, false, ImmKind::kRel32);  // jcc rel32
  }
  set(t.two, 0x70, true, ImmKind::kImm8);  // pshuf*
  set(t.two, 0x71, true, ImmKind::kImm8);
  set(t.two, 0x72, true, ImmKind::kImm8);
  set(t.two, 0x73, true, ImmKind::kImm8);
  set(t.two, 0xa4, true, ImmKind::kImm8);  // shld imm8
  set(t.two, 0xac, true, ImmKind::kImm8);  // shrd imm8
  set(t.two, 0xba, true, ImmKind::kImm8);  // bt group imm8
  set(t.two, 0xc2, true, ImmKind::kImm8);  // cmpps
  set(t.two, 0xc4, true, ImmKind::kImm8);  // pinsrw
  set(t.two, 0xc5, true, ImmKind::kImm8);  // pextrw
  set(t.two, 0xc6, true, ImmKind::kImm8);  // shufps
  // 0F 38 / 0F 3A escapes handled structurally in Decode().

  return t;
}

constexpr Tables kTables = BuildTables();

bool IsLegacyPrefix(uint8_t b) {
  switch (b) {
    case 0x66:
    case 0x67:
    case 0xf0:
    case 0xf2:
    case 0xf3:
    case 0x2e:
    case 0x36:
    case 0x3e:
    case 0x26:
    case 0x64:
    case 0x65:
      return true;
    default:
      return false;
  }
}

Mnemonic ArithMnemonicForBlock(int block) {
  switch (block) {
    case 0:
      return Mnemonic::kAdd;
    case 1:
      return Mnemonic::kOr;
    case 4:
      return Mnemonic::kAnd;
    case 5:
      return Mnemonic::kSub;
    case 6:
      return Mnemonic::kXor;
    case 7:
      return Mnemonic::kCmp;
    default:
      return Mnemonic::kOther;  // adc/sbb
  }
}

// Classifies the instruction for the emulator.
Mnemonic Classify(const Insn& insn, std::span<const uint8_t> code, size_t opcode_pos) {
  const uint8_t op = code[opcode_pos];
  if (insn.opcode_len == 1) {
    if (op == 0x90 && insn.rex == 0) {
      return Mnemonic::kNop;
    }
    if (op >= 0x50 && op <= 0x57) {
      return Mnemonic::kPush;
    }
    if (op >= 0x58 && op <= 0x5f) {
      return Mnemonic::kPop;
    }
    if (op <= 0x3d) {
      const int block = op >> 3;
      const int form = op & 7;
      if (form <= 5) {
        return ArithMnemonicForBlock(block);
      }
    }
    switch (op) {
      case 0x68:
      case 0x6a:
        return Mnemonic::kPush;
      case 0x69:
      case 0x6b:
        return Mnemonic::kImul;
      case 0x84:
      case 0x85:
      case 0xa8:
      case 0xa9:
        return Mnemonic::kTest;
      case 0x88:
      case 0x89:
      case 0x8a:
      case 0x8b:
      case 0xc6:
      case 0xc7:
        return Mnemonic::kMov;
      case 0x8d:
        return Mnemonic::kLea;
      case 0xc3:
        return Mnemonic::kRet;
      case 0xcc:
        return Mnemonic::kInt3;
      case 0xe8:
        return Mnemonic::kCallRel;
      case 0xe9:
      case 0xeb:
        return Mnemonic::kJmpRel;
      case 0xf4:
        return Mnemonic::kHlt;
      default:
        break;
    }
    if (op >= 0x70 && op <= 0x7f) {
      return Mnemonic::kJccRel;
    }
    if (op >= 0xb0 && op <= 0xb7) {
      return Mnemonic::kMov;
    }
    if (op >= 0xb8 && op <= 0xbf) {
      return insn.rex_w() ? Mnemonic::kMovImm64 : Mnemonic::kMov;
    }
    if (op == 0x80 || op == 0x81 || op == 0x83) {
      return ArithMnemonicForBlock(insn.modrm_reg() & 7);
    }
    if (op == 0xf6 || op == 0xf7) {
      switch (insn.modrm_reg() & 7) {
        case 0:
        case 1:
          return Mnemonic::kTest;
        case 2:
          return Mnemonic::kNot;
        case 3:
          return Mnemonic::kNeg;
        default:
          return Mnemonic::kOther;  // mul/imul/div/idiv
      }
    }
    if (op == 0xc1 || op == 0xd1 || op == 0xc0 || op == 0xd0) {
      switch (insn.modrm_reg() & 7) {
        case 4:
          return Mnemonic::kShl;
        case 5:
          return Mnemonic::kShr;
        case 7:
          return Mnemonic::kSar;
        default:
          return Mnemonic::kOther;  // rol/ror/rcl/rcr
      }
    }
    if (op == 0xff) {
      switch (insn.modrm_reg() & 7) {
        case 0:
          return Mnemonic::kInc;
        case 1:
          return Mnemonic::kDec;
        default:
          return Mnemonic::kOther;  // call/jmp/push indirect
      }
    }
    return Mnemonic::kOther;
  }
  if (insn.opcode_len == 2) {
    const uint8_t op2 = code[opcode_pos + 1];
    if (op2 == 0x01 && insn.modrm == 0xd4) {
      return Mnemonic::kVmfunc;
    }
    if (op2 == 0x01 && insn.modrm == 0xef) {
      return Mnemonic::kWrpkru;
    }
    if (op2 == 0x05) {
      return Mnemonic::kSyscall;
    }
    if (op2 >= 0x80 && op2 <= 0x8f) {
      return Mnemonic::kJccRel;
    }
    if (op2 == 0xaf) {
      return Mnemonic::kImul;
    }
    if (op2 == 0x1f) {
      return Mnemonic::kNop;  // multi-byte NOP
    }
    return Mnemonic::kOther;
  }
  return Mnemonic::kOther;
}

// Decodes the instruction at code[offset] into every field but the mnemonic;
// `vex` reports a VEX-encoded one. Returns false on undecodable bytes,
// leaving insn.length at 1 and the fields read so far filled. Decode and
// InsnLength both run this one routine: with its Insn a local that nothing
// reads but `length`, InsnLength compiles to a length-only walk over the same
// tables.
[[gnu::always_inline]] inline bool DecodeFields(std::span<const uint8_t> code, size_t offset,
                                                Insn& insn, bool& vex) {
  insn.length = 1;  // Conservative skip on failure.
  if (offset >= code.size()) {
    return false;
  }
  const size_t limit = std::min(code.size(), offset + kMaxInsnLen);
  size_t pos = offset;
  bool opsize16 = false;
  bool addr32 = false;

  // Legacy prefixes and REX. A REX byte not immediately preceding the opcode
  // is architecturally ignored; tracking the last one seen matches that.
  uint8_t rex = 0;
  while (pos < limit) {
    const uint8_t b = code[pos];
    if (IsLegacyPrefix(b)) {
      if (b == 0x66) {
        opsize16 = true;
      }
      if (b == 0x67) {
        addr32 = true;
      }
      rex = 0;  // REX must be the last prefix; earlier REX is ignored.
      ++insn.num_prefixes;
      ++pos;
      continue;
    }
    if (b >= 0x40 && b <= 0x4f) {
      rex = b;
      ++pos;
      continue;
    }
    break;
  }
  if (pos >= limit) {
    return false;
  }
  insn.rex = rex;
  insn.operand_size_16 = opsize16;
  insn.opcode_off = static_cast<uint8_t>(pos - offset);

  OpInfo info;
  uint8_t op = code[pos];

  // VEX prefixes (C4/C5 are always VEX in 64-bit mode).
  if (op == 0xc4 || op == 0xc5) {
    const size_t vex_len = op == 0xc4 ? 3 : 2;
    if (pos + vex_len >= limit) {
      return false;
    }
    const uint8_t vex_map = op == 0xc4 ? code[pos + 1] & 0x1f : 1;
    pos += vex_len;
    op = code[pos];
    if (vex_map > 3 || vex_map == 0) {
      return false;  // Reserved map.
    }
    info = OpInfo{true, true, vex_map == 3 ? ImmKind::kImm8 : ImmKind::kNone};
    insn.opcode_off = static_cast<uint8_t>(pos - offset);
    insn.opcode_len = 1;
    vex = true;
    ++pos;
  } else if (op == 0x0f) {
    if (pos + 1 >= limit) {
      return false;
    }
    const uint8_t op2 = code[pos + 1];
    if (op2 == 0x38 || op2 == 0x3a) {
      if (pos + 2 >= limit) {
        return false;
      }
      info = OpInfo{true, true, op2 == 0x3a ? ImmKind::kImm8 : ImmKind::kNone};
      insn.opcode_len = 3;
      pos += 3;
    } else {
      info = kTables.two[op2];
      insn.opcode_len = 2;
      pos += 2;
    }
  } else {
    info = kTables.one[op];
    insn.opcode_len = 1;
    ++pos;
  }

  if (!info.valid) {
    return false;
  }

  // ModRM / SIB / displacement.
  uint8_t disp_len = 0;
  if (info.modrm) {
    if (pos >= limit) {
      return false;
    }
    insn.has_modrm = true;
    insn.modrm_off = static_cast<uint8_t>(pos - offset);
    insn.modrm = code[pos];
    ++pos;
    const uint8_t mod = insn.modrm >> 6;
    const uint8_t rm = insn.modrm & 7;
    if (mod != 3) {
      if (rm == 4) {
        if (pos >= limit) {
          return false;
        }
        insn.has_sib = true;
        insn.sib_off = static_cast<uint8_t>(pos - offset);
        insn.sib = code[pos];
        ++pos;
      }
      if (mod == 1) {
        disp_len = 1;
      } else if (mod == 2) {
        disp_len = 4;
      } else {  // mod == 0
        if (rm == 5) {
          disp_len = 4;  // RIP-relative.
        } else if (insn.has_sib && (insn.sib & 7) == 5) {
          disp_len = 4;  // SIB with no base.
        }
      }
    }
  }
  if (disp_len > 0) {
    if (pos + disp_len > limit) {
      return false;
    }
    insn.disp_off = static_cast<uint8_t>(pos - offset);
    insn.disp_len = disp_len;
    pos += disp_len;
  }

  // Immediate.
  uint8_t imm_len = 0;
  switch (info.imm) {
    case ImmKind::kNone:
      break;
    case ImmKind::kImm8:
    case ImmKind::kRel8:
      imm_len = 1;
      break;
    case ImmKind::kImm16:
      imm_len = 2;
      break;
    case ImmKind::kImmZ:
      imm_len = opsize16 ? 2 : 4;
      break;
    case ImmKind::kImmVorZ:
      imm_len = (rex & 8) != 0 ? 8 : (opsize16 ? 2 : 4);
      break;
    case ImmKind::kMoffs:
      imm_len = addr32 ? 4 : 8;
      break;
    case ImmKind::kImm16Imm8:
      imm_len = 3;
      break;
    case ImmKind::kRel32:
      imm_len = 4;
      break;
    case ImmKind::kGroupF6:
      imm_len = (insn.modrm_reg() & 7) <= 1 ? 1 : 0;
      break;
    case ImmKind::kGroupF7:
      imm_len = (insn.modrm_reg() & 7) <= 1 ? (opsize16 ? 2 : 4) : 0;
      break;
  }
  if (imm_len > 0) {
    if (pos + imm_len > limit) {
      return false;
    }
    insn.imm_off = static_cast<uint8_t>(pos - offset);
    insn.imm_len = imm_len;
    pos += imm_len;
  }

  insn.length = static_cast<uint8_t>(pos - offset);
  return true;
}

}  // namespace

Insn Decode(std::span<const uint8_t> code, size_t offset) {
  Insn insn;
  bool vex = false;
  if (DecodeFields(code, offset, insn, vex)) {
    insn.valid = true;
    insn.mnemonic = vex ? Mnemonic::kOther : Classify(insn, code, offset + insn.opcode_off);
  }
  return insn;
}

size_t InsnLength(std::span<const uint8_t> code, size_t offset) {
  Insn insn;
  bool vex = false;
  DecodeFields(code, offset, insn, vex);
  return insn.length;
}

std::vector<size_t> LinearSweep(std::span<const uint8_t> code) {
  std::vector<size_t> starts;
  size_t pos = 0;
  while (pos < code.size()) {
    starts.push_back(pos);
    pos += InsnLength(code, pos);
  }
  return starts;
}

}  // namespace x86
