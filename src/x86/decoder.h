// x86-64 instruction-length decoder.

#ifndef SRC_X86_DECODER_H_
#define SRC_X86_DECODER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/x86/insn.h"

namespace x86 {

// Decodes the instruction starting at code[offset]. On undecodable bytes the
// returned Insn has valid == false and length == 1 (callers skip one byte,
// the conservative linear-sweep convention).
Insn Decode(std::span<const uint8_t> code, size_t offset);

// Decode(code, offset).length without the fields and the mnemonic: the same
// tables and rules, for sweeps that need only instruction boundaries.
size_t InsnLength(std::span<const uint8_t> code, size_t offset);

// Linear-sweep decode of a whole code region: returns the start offset of
// every decoded instruction, in order. Undecodable bytes consume one offset
// each.
std::vector<size_t> LinearSweep(std::span<const uint8_t> code);

}  // namespace x86

#endif  // SRC_X86_DECODER_H_
