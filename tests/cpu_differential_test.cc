// Copyright 2026 The TrustLite Reproduction Authors.
//
// Differential fuzzing of the interpreter's ALU / branch / jump semantics
// against an independent golden model written directly from the ISA
// documentation (isa.h). 60 seeds x 400 random instructions on random
// register files.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/cpu/cpu.h"
#include "src/dev/sysctl.h"
#include "src/isa/disassembler.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"

namespace trustlite {
namespace {

constexpr uint32_t kInsnAddr = 0x1000;

struct RefState {
  uint32_t regs[kNumRegisters];
  uint32_t ip;
};

// Golden model: semantics transcribed from isa.h, independent of cpu.cc.
void RefExecute(RefState& s, const Instruction& i) {
  const uint32_t a = s.regs[i.rs1];
  const uint32_t b = s.regs[i.rs2];
  const uint32_t imm = static_cast<uint32_t>(i.imm);
  uint32_t next_ip = s.ip + 4;
  switch (i.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kAdd: s.regs[i.rd] = a + b; break;
    case Opcode::kSub: s.regs[i.rd] = a - b; break;
    case Opcode::kAnd: s.regs[i.rd] = a & b; break;
    case Opcode::kOr: s.regs[i.rd] = a | b; break;
    case Opcode::kXor: s.regs[i.rd] = a ^ b; break;
    case Opcode::kShl: s.regs[i.rd] = a << (b & 31); break;
    case Opcode::kShr: s.regs[i.rd] = a >> (b & 31); break;
    case Opcode::kSra:
      s.regs[i.rd] =
          static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
      break;
    case Opcode::kMul: s.regs[i.rd] = a * b; break;
    case Opcode::kSltu: s.regs[i.rd] = a < b ? 1 : 0; break;
    case Opcode::kSlt:
      s.regs[i.rd] =
          static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
      break;
    case Opcode::kAddi: s.regs[i.rd] = a + imm; break;
    case Opcode::kAndi: s.regs[i.rd] = a & imm; break;
    case Opcode::kOri: s.regs[i.rd] = a | imm; break;
    case Opcode::kXori: s.regs[i.rd] = a ^ imm; break;
    case Opcode::kShli: s.regs[i.rd] = a << (i.imm & 31); break;
    case Opcode::kShri: s.regs[i.rd] = a >> (i.imm & 31); break;
    case Opcode::kSrai:
      s.regs[i.rd] =
          static_cast<uint32_t>(static_cast<int32_t>(a) >> (i.imm & 31));
      break;
    case Opcode::kMovi: s.regs[i.rd] = imm; break;
    case Opcode::kLui: s.regs[i.rd] = imm << 10; break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      // Branch operands travel in the rd/rs1 fields.
      const uint32_t x = s.regs[i.rd];
      const uint32_t y = s.regs[i.rs1];
      bool taken = false;
      switch (i.opcode) {
        case Opcode::kBeq: taken = x == y; break;
        case Opcode::kBne: taken = x != y; break;
        case Opcode::kBlt:
          taken = static_cast<int32_t>(x) < static_cast<int32_t>(y);
          break;
        case Opcode::kBge:
          taken = static_cast<int32_t>(x) >= static_cast<int32_t>(y);
          break;
        case Opcode::kBltu: taken = x < y; break;
        case Opcode::kBgeu: taken = x >= y; break;
        default: break;
      }
      if (taken) {
        next_ip = s.ip + imm;
      }
      break;
    }
    case Opcode::kJmp: next_ip = s.ip + imm; break;
    case Opcode::kJal:
      s.regs[kRegLr] = s.ip + 4;
      next_ip = s.ip + imm;
      break;
    case Opcode::kJr: next_ip = a; break;
    case Opcode::kJalr:
      next_ip = a;
      s.regs[kRegLr] = s.ip + 4;
      break;
    default:
      break;  // Not fuzzed.
  }
  s.ip = next_ip;
}

class CpuDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CpuDifferentialTest, AluAndControlFlowMatchGoldenModel) {
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 48611 + 3);
  Bus bus;
  Ram ram("ram", 0, 0x2'0000);
  SysCtl sysctl(kSysCtlBase);
  bus.Attach(&ram);
  bus.Attach(&sysctl);
  Cpu cpu(&bus, &sysctl, CpuConfig{});

  // Fuzzable opcode pool (no memory / system ops: those need environment).
  const Opcode pool[] = {
      Opcode::kNop,  Opcode::kAdd,  Opcode::kSub,  Opcode::kAnd,
      Opcode::kOr,   Opcode::kXor,  Opcode::kShl,  Opcode::kShr,
      Opcode::kSra,  Opcode::kMul,  Opcode::kSltu, Opcode::kSlt,
      Opcode::kAddi, Opcode::kAndi, Opcode::kOri,  Opcode::kXori,
      Opcode::kShli, Opcode::kShri, Opcode::kSrai, Opcode::kMovi,
      Opcode::kLui,  Opcode::kBeq,  Opcode::kBne,  Opcode::kBlt,
      Opcode::kBge,  Opcode::kBltu, Opcode::kBgeu, Opcode::kJmp,
      Opcode::kJal,  Opcode::kJr,   Opcode::kJalr};

  for (int round = 0; round < 400; ++round) {
    Instruction insn;
    insn.opcode = pool[rng.NextBelow(sizeof(pool) / sizeof(pool[0]))];
    insn.rd = static_cast<uint8_t>(rng.NextBelow(16));
    insn.rs1 = static_cast<uint8_t>(rng.NextBelow(16));
    insn.rs2 = static_cast<uint8_t>(rng.NextBelow(16));
    switch (FormatOf(insn.opcode)) {
      case InstructionFormat::kI:
        insn.imm = SignExtend(rng.Next32(), 18);
        break;
      case InstructionFormat::kU:
        insn.imm = static_cast<int32_t>(rng.NextBelow(1u << 22));
        break;
      case InstructionFormat::kB:
        insn.imm =
            (static_cast<int32_t>(rng.NextBelow(0x3FFFF)) - 0x1FFFF) * 4;
        break;
      case InstructionFormat::kJ:
        insn.imm =
            (static_cast<int32_t>(rng.NextBelow(0x3FFFFF)) - 0x1FFFFF) * 4;
        break;
      default:
        break;
    }

    // Random register file; jr/jalr need an executable-ish target, but we
    // only compare the architectural transition, so any value is fine (the
    // next fetch never happens: we step exactly once).
    RefState ref;
    ram.LoadBytes(kInsnAddr, std::vector<uint8_t>{0, 0, 0, 0});
    uint8_t word_bytes[4];
    StoreLe32(word_bytes, Encode(insn));
    ram.LoadBytes(kInsnAddr,
                  std::vector<uint8_t>(word_bytes, word_bytes + 4));
    cpu.Reset(kInsnAddr);
    for (int r = 0; r < kNumRegisters; ++r) {
      const uint32_t value = rng.Next32();
      cpu.set_reg(r, value);
      ref.regs[r] = value;
    }
    ref.ip = kInsnAddr;

    ASSERT_EQ(cpu.Step(), StepEvent::kExecuted)
        << Disassemble(insn, kInsnAddr);
    RefExecute(ref, insn);

    for (int r = 0; r < kNumRegisters; ++r) {
      ASSERT_EQ(cpu.reg(r), ref.regs[r])
          << "reg " << RegisterName(r) << " after "
          << Disassemble(insn, kInsnAddr) << " (seed " << GetParam()
          << ", round " << round << ")";
    }
    ASSERT_EQ(cpu.ip(), ref.ip) << Disassemble(insn, kInsnAddr);
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, CpuDifferentialTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace trustlite
