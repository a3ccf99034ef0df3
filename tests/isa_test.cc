// Copyright 2026 The TrustLite Reproduction Authors.
// Unit tests for the TL32 ISA definition: encode/decode round trips,
// immediate field limits, register naming, opcode classification.

#include "src/isa/isa.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/isa/assembler.h"
#include "src/isa/disassembler.h"

namespace trustlite {
namespace {

TEST(IsaTest, RegisterNames) {
  EXPECT_EQ(RegisterName(0), "r0");
  EXPECT_EQ(RegisterName(12), "r12");
  EXPECT_EQ(RegisterName(kRegSp), "sp");
  EXPECT_EQ(RegisterName(kRegLr), "lr");
}

TEST(IsaTest, RegisterFromName) {
  EXPECT_EQ(RegisterFromName("r0"), 0);
  EXPECT_EQ(RegisterFromName("r15"), 15);
  EXPECT_EQ(RegisterFromName("sp"), kRegSp);
  EXPECT_EQ(RegisterFromName("lr"), kRegLr);
  EXPECT_FALSE(RegisterFromName("r16").has_value());
  EXPECT_FALSE(RegisterFromName("x3").has_value());
  EXPECT_FALSE(RegisterFromName("r").has_value());
  EXPECT_FALSE(RegisterFromName("r1a").has_value());
}

TEST(IsaTest, OpcodeNamesRoundTrip) {
  for (uint8_t bits = 0; bits < 64; ++bits) {
    const std::optional<InstructionFormat> format = FormatOf(bits);
    if (!format.has_value()) {
      continue;
    }
    const Opcode op = static_cast<Opcode>(bits);
    EXPECT_EQ(OpcodeFromName(OpcodeName(op)), op)
        << "opcode bits " << static_cast<int>(bits);
  }
}

TEST(IsaTest, UndefinedOpcodesDecodeToNothing) {
  // Opcodes 41..47 and 51..63 are unassigned.
  EXPECT_FALSE(Decode(41u << 26).has_value());
  EXPECT_FALSE(Decode(47u << 26).has_value());
  EXPECT_FALSE(Decode(51u << 26).has_value());
  EXPECT_FALSE(Decode(63u << 26).has_value());
}

TEST(IsaTest, EncodeDecodeRType) {
  Instruction insn{Opcode::kAdd, 3, 7, 12, 0};
  const std::optional<Instruction> decoded = Decode(Encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, insn);
}

TEST(IsaTest, EncodeDecodeITypeNegativeImmediate) {
  Instruction insn{Opcode::kAddi, 13, 13, 0, -4};
  const std::optional<Instruction> decoded = Decode(Encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, -4);
  EXPECT_EQ(decoded->rd, 13);
}

TEST(IsaTest, EncodeDecodeImmediateLimits) {
  // imm18 signed: [-131072, 131071].
  for (const int32_t imm : {-131072, -1, 0, 1, 131071}) {
    Instruction insn{Opcode::kMovi, 1, 0, 0, imm};
    const std::optional<Instruction> decoded = Decode(Encode(insn));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->imm, imm) << imm;
  }
}

TEST(IsaTest, EncodeDecodeBranchOffsets) {
  for (const int32_t offset : {-524288, -4, 0, 4, 524284}) {
    Instruction insn{Opcode::kBeq, 1, 2, 0, offset};
    const std::optional<Instruction> decoded = Decode(Encode(insn));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->imm, offset) << offset;
  }
}

TEST(IsaTest, EncodeDecodeJumpOffsets) {
  for (const int32_t offset : {-67108864, -8, 0, 4, 67108860}) {
    Instruction insn{Opcode::kJal, 0, 0, 0, offset};
    const std::optional<Instruction> decoded = Decode(Encode(insn));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->imm, offset) << offset;
  }
}

TEST(IsaTest, EncodeDecodeLuiImm22) {
  Instruction insn{Opcode::kLui, 5, 0, 0, 0x3FFFFF};
  const std::optional<Instruction> decoded = Decode(Encode(insn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, 0x3FFFFF);
}

TEST(IsaTest, Classification) {
  EXPECT_TRUE(IsMemoryOp(Opcode::kLdw));
  EXPECT_TRUE(IsMemoryOp(Opcode::kStb));
  EXPECT_FALSE(IsMemoryOp(Opcode::kAdd));
  EXPECT_TRUE(IsJump(Opcode::kJalr));
  EXPECT_FALSE(IsJump(Opcode::kBeq));
  EXPECT_TRUE(IsBranch(Opcode::kBgeu));
  EXPECT_FALSE(IsBranch(Opcode::kJmp));
}

// Sign-extends an 18-bit pattern the same way the decoder does.
int32_t SignExtendImm(int32_t raw18) {
  const uint32_t v = static_cast<uint32_t>(raw18) & 0x3FFFF;
  return (v & 0x20000) != 0 ? static_cast<int32_t>(v | 0xFFFC0000u)
                            : static_cast<int32_t>(v);
}

// A word carrying the unassigned opcode `bits` and random operand bits.
uint32_t UnassignedWord(uint8_t bits, Xoshiro256& rng) {
  return (uint32_t{bits} << 26) | (rng.Next32() & ((1u << 26) - 1));
}

// Property: every defined opcode round-trips through encode/decode for many
// random operand combinations; every unassigned one is rejected.
class IsaRoundTripTest : public ::testing::TestWithParam<uint8_t> {};

TEST_P(IsaRoundTripTest, RandomOperandsRoundTrip) {
  const uint8_t bits = GetParam();
  const std::optional<InstructionFormat> format = FormatOf(bits);
  Xoshiro256 rng(bits * 1234567ull + 1);
  if (!format.has_value()) {
    // An unassigned opcode fails closed: no operand bits make it decode.
    for (int i = 0; i < 200; ++i) {
      const uint32_t word = UnassignedWord(bits, rng);
      EXPECT_FALSE(Decode(word).has_value()) << std::hex << word;
    }
    return;
  }
  for (int i = 0; i < 200; ++i) {
    Instruction insn;
    insn.opcode = static_cast<Opcode>(bits);
    switch (*format) {
      case InstructionFormat::kR:
        insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
        insn.rs1 = static_cast<uint8_t>(rng.NextBelow(16));
        insn.rs2 = static_cast<uint8_t>(rng.NextBelow(16));
        break;
      case InstructionFormat::kI:
        insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
        insn.rs1 = static_cast<uint8_t>(rng.NextBelow(16));
        insn.imm = static_cast<int32_t>(rng.NextInRange(0, 0x3FFFF));
        insn.imm = SignExtendImm(insn.imm);
        break;
      case InstructionFormat::kU:
        insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
        insn.imm = static_cast<int32_t>(rng.NextBelow(1u << 22));
        break;
      case InstructionFormat::kB:
        insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
        insn.rs1 = static_cast<uint8_t>(rng.NextBelow(16));
        insn.imm = (static_cast<int32_t>(rng.NextInRange(0, 0x3FFFF)) -
                    0x20000) *
                   4;
        break;
      case InstructionFormat::kJ:
        insn.imm = (static_cast<int32_t>(rng.NextInRange(0, 0x3FFFFFF)) -
                    0x2000000) *
                   4;
        break;
      case InstructionFormat::kNone:
        break;
    }
    const std::optional<Instruction> decoded = Decode(Encode(insn));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, insn) << "opcode " << OpcodeName(insn.opcode);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, IsaRoundTripTest,
                         ::testing::Range<uint8_t>(0, 64));

// Property: disassembler output is valid assembler input that re-encodes to
// the identical word (for every defined, assembler-expressible opcode; an
// unassigned opcode's word is rendered as `.word`, which reassembles too).
class DisasRoundTripTest : public ::testing::TestWithParam<uint8_t> {};

TEST_P(DisasRoundTripTest, DisassemblyReassembles) {
  const uint8_t bits = GetParam();
  const std::optional<InstructionFormat> format = FormatOf(bits);
  Xoshiro256 rng(bits * 31u + 5);
  if (!format.has_value()) {
    for (int i = 0; i < 64; ++i) {
      const uint32_t word = UnassignedWord(bits, rng);
      const std::string text = DisassembleWord(word, 0x4000);
      char want[24];
      std::snprintf(want, sizeof(want), ".word 0x%08x", word);
      EXPECT_EQ(text, want);
      Result<AsmOutput> out = Assemble(text + "\n", 0x4000);
      ASSERT_TRUE(out.ok()) << text << ": " << out.status().ToString();
      uint32_t base = 0;
      const std::vector<uint8_t> image = out->Flatten(&base);
      ASSERT_EQ(image.size(), 4u) << text;
      EXPECT_EQ(LoadLe32(image.data()), word) << text;
    }
    return;
  }
  const Opcode op = static_cast<Opcode>(bits);
  for (int i = 0; i < 64; ++i) {
    Instruction insn;
    insn.opcode = op;
    insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
    insn.rs1 = static_cast<uint8_t>(rng.NextBelow(16));
    insn.rs2 = static_cast<uint8_t>(rng.NextBelow(16));
    // Zero the fields the assembly syntax of this opcode cannot express
    // (they are don't-care bits in hardware, but the round trip must be
    // exact).
    switch (op) {
      case Opcode::kMovi:
      case Opcode::kLui:
      case Opcode::kSwi:
        insn.rs1 = 0;
        insn.rs2 = 0;
        if (op == Opcode::kSwi) {
          insn.rd = 0;
        }
        break;
      case Opcode::kJr:
      case Opcode::kJalr:
      case Opcode::kProtect:
        insn.rd = 0;
        insn.rs2 = 0;
        break;
      case Opcode::kAttest:
        insn.rs2 = 0;
        break;
      case Opcode::kUnprotect:  // R-format encoding but no operands.
        insn.rd = 0;
        insn.rs1 = 0;
        insn.rs2 = 0;
        break;
      default:
        if (*format == InstructionFormat::kNone) {
          insn.rd = 0;
          insn.rs1 = 0;
          insn.rs2 = 0;
        } else if (*format == InstructionFormat::kJ) {
          insn.rd = 0;
          insn.rs1 = 0;
          insn.rs2 = 0;
        } else if (*format == InstructionFormat::kI ||
                   *format == InstructionFormat::kU) {
          insn.rs2 = 0;
          if (*format == InstructionFormat::kU) {
            insn.rs1 = 0;
          }
        }
        break;
    }
    switch (*format) {
      case InstructionFormat::kI:
        insn.imm = SignExtendImm(static_cast<int32_t>(rng.Next32()));
        break;
      case InstructionFormat::kU:
        insn.imm = static_cast<int32_t>(rng.NextBelow(1u << 22));
        break;
      case InstructionFormat::kB:
        insn.imm =
            (static_cast<int32_t>(rng.NextBelow(0x1000)) - 0x800) * 4;
        break;
      case InstructionFormat::kJ:
        insn.imm =
            (static_cast<int32_t>(rng.NextBelow(0x1000)) - 0x800) * 4;
        break;
      default:
        break;
    }
    const uint32_t addr = 0x4000;
    const uint32_t word = Encode(insn);
    const std::string text = Disassemble(insn, addr);
    Result<AsmOutput> out = Assemble(text + "\n", addr);
    ASSERT_TRUE(out.ok()) << text << ": " << out.status().ToString();
    uint32_t base = 0;
    const std::vector<uint8_t> image = out->Flatten(&base);
    ASSERT_EQ(image.size(), 4u) << text;
    EXPECT_EQ(LoadLe32(image.data()), word) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, DisasRoundTripTest,
                         ::testing::Range<uint8_t>(0, 64));

TEST(DisassemblerTest, RendersCommonForms) {
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kNop, 0, 0, 0, 0}), 0), "nop");
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kAdd, 1, 2, 3, 0}), 0),
            "add r1, r2, r3");
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kMovi, 4, 0, 0, -7}), 0),
            "movi r4, -7");
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kLdw, 5, 13, 0, 8}), 0),
            "ldw r5, [sp+8]");
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kJmp, 0, 0, 0, 16}), 0x100),
            "jmp 0x00000110");
  EXPECT_EQ(DisassembleWord(Encode({Opcode::kBeq, 1, 2, 0, -8}), 0x100),
            "beq r1, r2, 0x000000f8");
  EXPECT_EQ(DisassembleWord(0xFFFFFFFF, 0), ".word 0xffffffff");
}

}  // namespace
}  // namespace trustlite
