// Copyright 2026 The TrustLite Reproduction Authors.
// Unit tests for the TL32 assembler: directives, expressions, pseudo-
// instructions, labels, error reporting.

#include "src/isa/assembler.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/isa/isa.h"

namespace trustlite {
namespace {

// Assembles and returns the flattened image; fails the test on error.
std::vector<uint8_t> MustAssemble(const std::string& source,
                                  uint32_t origin = 0,
                                  uint32_t* base = nullptr) {
  Result<AsmOutput> out = Assemble(source, origin);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return {};
  }
  uint32_t image_base = 0;
  std::vector<uint8_t> image = out->Flatten(&image_base);
  if (base != nullptr) {
    *base = image_base;
  }
  return image;
}

Instruction MustDecode(const std::vector<uint8_t>& image, size_t index) {
  EXPECT_GE(image.size(), (index + 1) * 4);
  const std::optional<Instruction> insn = Decode(LoadLe32(&image[index * 4]));
  EXPECT_TRUE(insn.has_value());
  return insn.value_or(Instruction{});
}

TEST(AssemblerTest, EmptySourceYieldsNothing) {
  Result<AsmOutput> out = Assemble("");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->chunks.empty());
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  const std::vector<uint8_t> image = MustAssemble(R"(
; full line comment
# hash comment
// slash comment
    nop ; trailing
    halt # trailing
)");
  ASSERT_EQ(image.size(), 8u);
  EXPECT_EQ(MustDecode(image, 0).opcode, Opcode::kNop);
  EXPECT_EQ(MustDecode(image, 1).opcode, Opcode::kHalt);
}

TEST(AssemblerTest, BasicAluEncoding) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    add r1, r2, r3
    addi r4, r5, -12
    movi r6, 1000
)");
  Instruction add = MustDecode(image, 0);
  EXPECT_EQ(add.opcode, Opcode::kAdd);
  EXPECT_EQ(add.rd, 1);
  EXPECT_EQ(add.rs1, 2);
  EXPECT_EQ(add.rs2, 3);
  Instruction addi = MustDecode(image, 1);
  EXPECT_EQ(addi.imm, -12);
  Instruction movi = MustDecode(image, 2);
  EXPECT_EQ(movi.imm, 1000);
}

TEST(AssemblerTest, MemoryOperands) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    ldw r1, [r2]
    ldw r3, [sp + 8]
    stw r4, [r5 - 4]
    ldb r6, [r7 + 0x10]
)");
  EXPECT_EQ(MustDecode(image, 0).imm, 0);
  EXPECT_EQ(MustDecode(image, 1).imm, 8);
  EXPECT_EQ(MustDecode(image, 1).rs1, kRegSp);
  EXPECT_EQ(MustDecode(image, 2).imm, -4);
  EXPECT_EQ(MustDecode(image, 3).imm, 16);
}

TEST(AssemblerTest, LabelsAndBranches) {
  Result<AsmOutput> out = Assemble(R"(
start:
    movi r0, 0
loop:
    addi r0, r0, 1
    bne r0, r1, loop
    jmp start
)",
                                   0x100);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->symbols.at("start"), 0x100u);
  EXPECT_EQ(out->symbols.at("loop"), 0x104u);
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  EXPECT_EQ(base, 0x100u);
  // bne at 0x108 targeting 0x104 -> offset -4.
  EXPECT_EQ(MustDecode(image, 2).imm, -4);
  // jmp at 0x10C targeting 0x100 -> offset -12.
  EXPECT_EQ(MustDecode(image, 3).imm, -12);
}

TEST(AssemblerTest, ForwardReferences) {
  Result<AsmOutput> out = Assemble(R"(
    jmp end
    nop
end:
    halt
)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  EXPECT_EQ(MustDecode(image, 0).imm, 8);
}

TEST(AssemblerTest, DirectivesWordByteAscii) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    .word 0x11223344, 5
    .byte 1, 2, 3
    .align 4
    .asciiz "AB\n"
    .align 4
    .space 4, 0xEE
)");
  ASSERT_EQ(image.size(), 20u);
  EXPECT_EQ(LoadLe32(&image[0]), 0x11223344u);
  EXPECT_EQ(LoadLe32(&image[4]), 5u);
  EXPECT_EQ(image[8], 1);
  EXPECT_EQ(image[10], 3);
  EXPECT_EQ(image[11], 0);  // align pad
  EXPECT_EQ(image[12], 'A');
  EXPECT_EQ(image[14], '\n');
  EXPECT_EQ(image[15], 0);  // asciiz terminator
  EXPECT_EQ(image[16], 0xEE);
  EXPECT_EQ(image[19], 0xEE);
}

TEST(AssemblerTest, EquAndExpressions) {
  Result<AsmOutput> out = Assemble(R"(
.equ BASE, 0x1000
.equ OFFSET, BASE + 0x20
    .word OFFSET - 4
    .word (BASE + 8) - (2 + 2)
    .word 'A' + 1
    .word ~0
)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  EXPECT_EQ(LoadLe32(&image[0]), 0x101Cu);
  EXPECT_EQ(LoadLe32(&image[4]), 0x1004u);
  EXPECT_EQ(LoadLe32(&image[8]), 66u);
  EXPECT_EQ(LoadLe32(&image[12]), 0xFFFFFFFFu);
}

TEST(AssemblerTest, OrgStartsNewChunk) {
  Result<AsmOutput> out = Assemble(R"(
    nop
.org 0x2000
    halt
)");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->chunks.size(), 2u);
  EXPECT_EQ(out->chunks[0].base, 0u);
  EXPECT_EQ(out->chunks[1].base, 0x2000u);
  EXPECT_EQ(out->chunks[1].bytes.size(), 4u);
}

TEST(AssemblerTest, PseudoLiShortAndWide) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    li r1, 42
    li r2, 0x12345678
)");
  // 42 fits movi (1 word); the wide constant takes lui+ori (2 words).
  ASSERT_EQ(image.size(), 12u);
  EXPECT_EQ(MustDecode(image, 0).opcode, Opcode::kMovi);
  EXPECT_EQ(MustDecode(image, 1).opcode, Opcode::kLui);
  EXPECT_EQ(MustDecode(image, 2).opcode, Opcode::kOri);
  // Verify the reconstructed constant.
  const uint32_t hi = static_cast<uint32_t>(MustDecode(image, 1).imm) << 10;
  const uint32_t lo = static_cast<uint32_t>(MustDecode(image, 2).imm);
  EXPECT_EQ(hi | lo, 0x12345678u);
}

TEST(AssemblerTest, PseudoLaAlwaysWide) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    la r1, target
target:
    halt
)");
  ASSERT_EQ(image.size(), 12u);
  const uint32_t hi = static_cast<uint32_t>(MustDecode(image, 0).imm) << 10;
  const uint32_t lo = static_cast<uint32_t>(MustDecode(image, 1).imm);
  EXPECT_EQ(hi | lo, 8u);
}

TEST(AssemblerTest, PseudoPushPopRetCallMov) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    push r3
    pop r4
    mov r5, r6
    call fn
    ret
fn:
    halt
)");
  EXPECT_EQ(MustDecode(image, 0).opcode, Opcode::kAddi);  // sp -= 4
  EXPECT_EQ(MustDecode(image, 0).imm, -4);
  EXPECT_EQ(MustDecode(image, 1).opcode, Opcode::kStw);
  EXPECT_EQ(MustDecode(image, 2).opcode, Opcode::kLdw);
  EXPECT_EQ(MustDecode(image, 3).imm, 4);
  Instruction mov = MustDecode(image, 4);
  EXPECT_EQ(mov.opcode, Opcode::kAddi);
  EXPECT_EQ(mov.rd, 5);
  EXPECT_EQ(mov.rs1, 6);
  EXPECT_EQ(MustDecode(image, 5).opcode, Opcode::kJal);
  Instruction ret = MustDecode(image, 6);
  EXPECT_EQ(ret.opcode, Opcode::kJr);
  EXPECT_EQ(ret.rs1, kRegLr);
}

TEST(AssemblerTest, ReversedBranchAliases) {
  const std::vector<uint8_t> image = MustAssemble(R"(
t:
    bgt r1, r2, t
    bleu r3, r4, t
)");
  Instruction bgt = MustDecode(image, 0);
  EXPECT_EQ(bgt.opcode, Opcode::kBlt);
  EXPECT_EQ(bgt.rd, 2);   // swapped
  EXPECT_EQ(bgt.rs1, 1);
  Instruction bleu = MustDecode(image, 1);
  EXPECT_EQ(bleu.opcode, Opcode::kBgeu);
  EXPECT_EQ(bleu.rd, 4);
  EXPECT_EQ(bleu.rs1, 3);
}

TEST(AssemblerTest, CurrentLocationSymbol) {
  Result<AsmOutput> out = Assemble(R"(
.org 0x40
here: .word .
)");
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  EXPECT_EQ(LoadLe32(&image[0]), 0x40u);
}

// --- Error cases ---

struct ErrorCase {
  const char* name;
  const char* source;
  const char* substring;
};

// Prints the case by name. Without this gtest dumps the raw struct bytes,
// i.e. the run-time addresses of the strings, into the listed test names,
// which then change from one run of the binary to the next.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class AssemblerErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(AssemblerErrorTest, ReportsError) {
  Result<AsmOutput> out = Assemble(GetParam().source);
  ASSERT_FALSE(out.ok()) << "expected failure";
  EXPECT_NE(out.status().message().find(GetParam().substring),
            std::string::npos)
      << out.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Errors, AssemblerErrorTest,
    ::testing::Values(
        ErrorCase{"UnknownMnemonic", "  frobnicate r1", "unknown mnemonic"},
        ErrorCase{"BadRegister", "  add r1, r2, r99", "bad register"},
        ErrorCase{"DuplicateLabel", "a:\na:\n  nop", "duplicate label"},
        ErrorCase{"UndefinedSymbol", "  jmp nowhere", "undefined symbol"},
        ErrorCase{"MoviRange", "  movi r1, 0x40000", "out of range"},
        ErrorCase{"BadDirective", "  .bogus 1", "unknown directive"},
        ErrorCase{"BadAlign", "  .align 3", "power of two"},
        ErrorCase{"SwiOperands", "  swi", "vector"},
        ErrorCase{"RetOperands", "  ret r1", "no operands"},
        ErrorCase{"MemOperand", "  ldw r1, r2", "memory operand"}),
    [](const ::testing::TestParamInfo<ErrorCase>& param_info) {
      return param_info.param.name;
    });

TEST(AssemblerTest, HalfDirectiveLittleEndian) {
  const std::vector<uint8_t> image = MustAssemble(".half 0x1234, 0xABCD\n");
  ASSERT_EQ(image.size(), 4u);
  EXPECT_EQ(image[0], 0x34);
  EXPECT_EQ(image[1], 0x12);
  EXPECT_EQ(image[2], 0xCD);
  EXPECT_EQ(image[3], 0xAB);
}

TEST(AssemblerTest, ParenthesizedAndUnaryExpressions) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    .word -(3 + 4)
    .word -1 + 2
    .word (1 + 2) - (3 - 4)
)");
  EXPECT_EQ(LoadLe32(&image[0]), static_cast<uint32_t>(-7));
  EXPECT_EQ(LoadLe32(&image[4]), 1u);
  EXPECT_EQ(LoadLe32(&image[8]), 4u);
}

TEST(AssemblerTest, CommentCharactersInsideStrings) {
  const std::vector<uint8_t> image =
      MustAssemble(".asciiz \"a;b#c//d\"\n");
  const std::string text(image.begin(), image.end() - 1);
  EXPECT_EQ(text, "a;b#c//d");
}

TEST(AssemblerTest, BinaryAndCharLiterals) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    .word 0b1010
    .word 'Z'
    .word '\n'
)");
  EXPECT_EQ(LoadLe32(&image[0]), 10u);
  EXPECT_EQ(LoadLe32(&image[4]), 90u);
  EXPECT_EQ(LoadLe32(&image[8]), 10u);
}

TEST(AssemblerTest, BAliasEmitsJmp) {
  const std::vector<uint8_t> image = MustAssemble("t:\n    b t\n");
  EXPECT_EQ(MustDecode(image, 0).opcode, Opcode::kJmp);
}

TEST(AssemblerTest, LiWidthBoundary) {
  // 0x1FFFF fits imm18 signed (131071); 0x20000 does not.
  const std::vector<uint8_t> narrow = MustAssemble("    li r1, 0x1FFFF\n");
  EXPECT_EQ(narrow.size(), 4u);
  const std::vector<uint8_t> wide = MustAssemble("    li r1, 0x20000\n");
  EXPECT_EQ(wide.size(), 8u);
  // Negative boundary: -131072 fits, -131073 does not.
  EXPECT_EQ(MustAssemble("    li r1, -131072\n").size(), 4u);
  EXPECT_EQ(MustAssemble("    li r1, -131073\n").size(), 8u);
}

TEST(AssemblerTest, DuplicateEquRejected) {
  Result<AsmOutput> out = Assemble(".equ X, 1\n.equ X, 2\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("duplicate"), std::string::npos);
}

TEST(AssemblerTest, MultipleLabelsSameLine) {
  Result<AsmOutput> out = Assemble("a: b: c:\n    nop\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->symbols.at("a"), out->symbols.at("b"));
  EXPECT_EQ(out->symbols.at("b"), out->symbols.at("c"));
}

TEST(AssemblerTest, SancusMnemonicsAssemble) {
  const std::vector<uint8_t> image = MustAssemble(R"(
    protect r1
    unprotect
    attest r2, r3
)");
  EXPECT_EQ(MustDecode(image, 0).opcode, Opcode::kProtect);
  EXPECT_EQ(MustDecode(image, 1).opcode, Opcode::kUnprotect);
  Instruction attest = MustDecode(image, 2);
  EXPECT_EQ(attest.opcode, Opcode::kAttest);
  EXPECT_EQ(attest.rd, 2);
  EXPECT_EQ(attest.rs1, 3);
}

TEST(AssemblerTest, ErrorsIncludeLineNumbers) {
  Result<AsmOutput> out = Assemble("  nop\n  nop\n  bad_op r1\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("line 3"), std::string::npos)
      << out.status().ToString();
}


// Robustness: arbitrary garbage input must produce a graceful error (or
// accidentally valid output), never a crash or hang.
class AssemblerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AssemblerFuzzTest, GarbageInputHandledGracefully) {
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 7349 + 29);
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t,.:;+-()[]'\"#xrn_@!";
  std::string source;
  const int lines = 5 + static_cast<int>(rng.NextBelow(40));
  for (int i = 0; i < lines; ++i) {
    const int len = static_cast<int>(rng.NextBelow(60));
    for (int j = 0; j < len; ++j) {
      source.push_back(kChars[rng.NextBelow(sizeof(kChars) - 1)]);
    }
    source.push_back('\n');
  }
  // Must terminate and either succeed or fail with a line-located error.
  Result<AsmOutput> out = Assemble(source);
  if (!out.ok()) {
    EXPECT_NE(out.status().message().find("line"), std::string::npos)
        << out.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, AssemblerFuzzTest,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace trustlite
