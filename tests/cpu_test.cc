// Copyright 2026 The TrustLite Reproduction Authors.
// CPU interpreter tests: instruction semantics, cycle accounting, control
// flow, memory access, SWI/iret, and the cycle counter peripheral wiring.

#include "src/cpu/cpu.h"

#include <gtest/gtest.h>

#include "src/dev/sysctl.h"
#include "src/isa/assembler.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"

namespace trustlite {
namespace {

constexpr uint32_t kOrigin = 0x1000;

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : ram_("ram", 0, 0x2'0000), sysctl_(kSysCtlBase) {
    bus_.Attach(&ram_);
    bus_.Attach(&sysctl_);
    CpuConfig config;
    cpu_ = std::make_unique<Cpu>(&bus_, &sysctl_, config);
  }

  // Assembles at kOrigin, loads, resets the CPU there and runs to halt.
  void RunProgram(const std::string& source, uint64_t max_instructions = 10000) {
    Result<AsmOutput> out = Assemble(source, kOrigin);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    uint32_t base = 0;
    const std::vector<uint8_t> image = out->Flatten(&base);
    ram_.LoadBytes(base, image);
    cpu_->Reset(kOrigin);
    cpu_->Run(max_instructions);
  }

  Bus bus_;
  Ram ram_;
  SysCtl sysctl_;
  std::unique_ptr<Cpu> cpu_;
};

TEST_F(CpuTest, MoviAndHalt) {
  RunProgram("movi r1, 42\nhalt\n");
  EXPECT_TRUE(cpu_->halted());
  EXPECT_FALSE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->reg(1), 42u);
  EXPECT_EQ(cpu_->stats().instructions, 2u);
}

TEST_F(CpuTest, AluOperations) {
  RunProgram(R"(
    movi r1, 21
    movi r2, 2
    mul  r3, r1, r2        ; 42
    add  r4, r3, r2        ; 44
    sub  r5, r3, r1        ; 21
    and  r6, r3, r2        ; 2
    or   r7, r1, r2        ; 23
    xor  r8, r1, r1        ; 0
    shl  r9, r2, r2        ; 8
    movi r10, -8
    sra  r11, r10, r2      ; -2
    shr  r12, r10, r2      ; big positive
    slt  r0, r10, r2       ; 1 (signed)
    sltu r15, r10, r2      ; 0 (unsigned: -8 is huge)
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 42u);
  EXPECT_EQ(cpu_->reg(4), 44u);
  EXPECT_EQ(cpu_->reg(5), 21u);
  EXPECT_EQ(cpu_->reg(6), 2u);
  EXPECT_EQ(cpu_->reg(7), 23u);
  EXPECT_EQ(cpu_->reg(8), 0u);
  EXPECT_EQ(cpu_->reg(9), 8u);
  EXPECT_EQ(cpu_->reg(11), static_cast<uint32_t>(-2));
  EXPECT_EQ(cpu_->reg(12), 0x3FFFFFFEu);
  EXPECT_EQ(cpu_->reg(0), 1u);
  EXPECT_EQ(cpu_->reg(15), 0u);
}

TEST_F(CpuTest, ImmediateOperations) {
  RunProgram(R"(
    movi r1, 0x155
    andi r2, r1, 0x0F0
    ori  r3, r1, 0x00A
    xori r4, r1, 0x155
    shli r5, r1, 4
    shri r6, r1, 4
    movi r7, -16
    srai r8, r7, 2
    halt
)");
  EXPECT_EQ(cpu_->reg(2), 0x50u);
  EXPECT_EQ(cpu_->reg(3), 0x15Fu);
  EXPECT_EQ(cpu_->reg(4), 0u);
  EXPECT_EQ(cpu_->reg(5), 0x1550u);
  EXPECT_EQ(cpu_->reg(6), 0x15u);
  EXPECT_EQ(cpu_->reg(8), static_cast<uint32_t>(-4));
}

TEST_F(CpuTest, LuiOriBuilds32BitConstant) {
  RunProgram("li r1, 0xDEADBEEF\nhalt\n");
  EXPECT_EQ(cpu_->reg(1), 0xDEADBEEFu);
}

TEST_F(CpuTest, LoadStoreWordAndByte) {
  RunProgram(R"(
    li  r1, 0x8000
    li  r2, 0x11223344
    stw r2, [r1]
    ldw r3, [r1]
    ldb r4, [r1 + 1]
    movi r5, 0xFF
    stb r5, [r1 + 2]
    ldw r6, [r1]
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 0x11223344u);
  EXPECT_EQ(cpu_->reg(4), 0x33u);
  EXPECT_EQ(cpu_->reg(6), 0x11FF3344u);
}

TEST_F(CpuTest, BranchesTakenAndNotTaken) {
  RunProgram(R"(
    movi r1, 5
    movi r2, 5
    movi r3, 0
    beq  r1, r2, eq_taken
    movi r3, 99
eq_taken:
    movi r4, -1
    movi r5, 1
    blt  r4, r5, signed_ok      ; -1 < 1 signed
    halt
signed_ok:
    bltu r5, r4, unsigned_ok    ; 1 < 0xFFFFFFFF unsigned
    halt
unsigned_ok:
    movi r6, 123
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 0u);
  EXPECT_EQ(cpu_->reg(6), 123u);
}

TEST_F(CpuTest, JalAndRet) {
  RunProgram(R"(
    movi r1, 1
    call sub
    movi r3, 3
    halt
sub:
    movi r2, 2
    ret
)");
  EXPECT_EQ(cpu_->reg(1), 1u);
  EXPECT_EQ(cpu_->reg(2), 2u);
  EXPECT_EQ(cpu_->reg(3), 3u);
}

TEST_F(CpuTest, JalrJumpsViaRegister) {
  RunProgram(R"(
    la   r1, target
    jalr r1
    halt
target:
    movi r2, 77
    halt
)");
  EXPECT_EQ(cpu_->reg(2), 77u);
  // lr points after the jalr.
  EXPECT_EQ(cpu_->reg(kRegLr), kOrigin + 12u);
}

TEST_F(CpuTest, PushPopStack) {
  RunProgram(R"(
    li  r13, 0x9000
    movi r1, 11
    movi r2, 22
    push r1
    push r2
    pop r3
    pop r4
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 22u);
  EXPECT_EQ(cpu_->reg(4), 11u);
  EXPECT_EQ(cpu_->reg(kRegSp), 0x9000u);
}

TEST_F(CpuTest, CycleCosts) {
  // movi(1) + movi(1) + mul(3) + ldw(2) + taken jmp(2) + halt(1) ... verify
  // the cycle model end to end.
  RunProgram(R"(
    movi r1, 1
    li   r2, 0x8000
    mul  r3, r1, r1
    ldw  r4, [r2]
    jmp  end
    nop
end:
    halt
)");
  // li expands to a single movi here? 0x8000 fits imm18 -> movi (1 insn).
  // cycles: 1 + 1 + 3 + 2 + 2 + 1 = 10.
  EXPECT_EQ(cpu_->cycles(), 10u);
}

TEST_F(CpuTest, BranchNotTakenCostsOneCycle) {
  RunProgram(R"(
    movi r1, 1
    movi r2, 2
    beq  r1, r2, skip     ; not taken
skip:
    halt
)");
  EXPECT_EQ(cpu_->cycles(), 4u);
}

TEST_F(CpuTest, CliStiToggleInterruptFlag) {
  RunProgram("sti\nhalt\n");
  EXPECT_EQ(cpu_->flags() & kFlagIf, kFlagIf);
  RunProgram("sti\ncli\nhalt\n");
  EXPECT_EQ(cpu_->flags() & kFlagIf, 0u);
}

TEST_F(CpuTest, UnhandledIllegalInstructionHalts) {
  // Opcode 63 is undefined; no handler installed -> trap.
  const uint32_t bad = 63u << 26;
  ram_.LoadBytes(kOrigin, std::vector<uint8_t>{static_cast<uint8_t>(bad),
                                               static_cast<uint8_t>(bad >> 8),
                                               static_cast<uint8_t>(bad >> 16),
                                               static_cast<uint8_t>(bad >> 24)});
  cpu_->Reset(kOrigin);
  cpu_->Run(10);
  EXPECT_TRUE(cpu_->halted());
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcIllegal);
}

TEST_F(CpuTest, UnhandledBusErrorHalts) {
  RunProgram(R"(
    li  r1, 0xE0000000
    ldw r2, [r1]
    halt
)");
  EXPECT_TRUE(cpu_->halted());
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcBusError);
  EXPECT_EQ(cpu_->trap().addr, 0xE0000000u);
}

TEST_F(CpuTest, UnhandledAlignmentFaultHalts) {
  RunProgram(R"(
    movi r1, 0x8001
    ldw r2, [r1]
    halt
)");
  EXPECT_TRUE(cpu_->halted());
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcAlign);
}

TEST_F(CpuTest, SwiVectorsThroughSysCtlAndResumesAfter) {
  RunProgram(R"(
    ; install SWI0 handler
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 32]          ; handler slot 8 = SWI 0
    li  sp, 0x9000
    movi r3, 0
    swi 0
    movi r4, 44                ; resumes here after iret
    halt
handler:
    movi r3, 33
    addi sp, sp, 4             ; pop error code
    iret
)");
  EXPECT_TRUE(cpu_->halted());
  EXPECT_FALSE(cpu_->trap().valid) << cpu_->trap().reason;
  EXPECT_EQ(cpu_->reg(3), 33u);
  EXPECT_EQ(cpu_->reg(4), 44u);
}

TEST_F(CpuTest, RegularExceptionEntryCostIs21Cycles) {
  RunProgram(R"(
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 32]
    li  sp, 0x9000
    swi 0
    halt
handler:
    halt
)");
  // Without an MPU attached there is no secure-engine detect overhead.
  EXPECT_EQ(cpu_->last_exception_entry_cycles(), 21u);
}

TEST_F(CpuTest, ExceptionFramePushedOnCurrentStack) {
  RunProgram(R"(
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 40]      ; handler slot 10 = SWI 2
    li  sp, 0x9000
    sti
swi_site:
    swi 2
    halt
handler:
    ldw r5, [sp + 0]       ; error code
    ldw r6, [sp + 4]       ; resume ip
    ldw r7, [sp + 8]       ; saved flags
    la  r8, swi_site
    halt
)");
  EXPECT_EQ(cpu_->reg(5), kExcSwiBase + 2u);
  // SWIs resume after the trapping instruction.
  EXPECT_EQ(cpu_->reg(6), cpu_->reg(8) + 4u);
  EXPECT_EQ(cpu_->reg(7) & kFlagIf, kFlagIf);  // Saved flags had IF set.
  EXPECT_EQ(cpu_->flags() & kFlagIf, 0u);      // Cleared on entry.
}

TEST_F(CpuTest, StatsCountInstructionAndExceptions) {
  RunProgram(R"(
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 32]
    li  sp, 0x9000
    swi 0
    halt
handler:
    addi sp, sp, 4
    iret
)");
  EXPECT_EQ(cpu_->stats().exceptions, 1u);
  EXPECT_GE(cpu_->stats().instructions, 7u);
}

TEST_F(CpuTest, SysCtlCycleCounterAdvances) {
  RunProgram(R"(
    li  r1, 0xF0000000
    ldw r2, [r1 + 0x44]    ; CYCLES_LO
    nop
    nop
    nop
    ldw r3, [r1 + 0x44]
    sub r4, r3, r2
    halt
)");
  // Three nops (1 cycle each) plus the second load's own cost separate the
  // two samples; the counter must have advanced by at least 3.
  EXPECT_GE(cpu_->reg(4), 3u);
  EXPECT_TRUE(cpu_->halted());
  EXPECT_FALSE(cpu_->trap().valid);
}

TEST_F(CpuTest, SancusOpcodesIllegalWithoutHook) {
  RunProgram("unprotect\nhalt\n");
  EXPECT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcIllegal);
}

TEST_F(CpuTest, SancusHookIntercepts) {
  cpu_->SetSancusHook([](const Instruction& insn, Cpu* cpu) {
    if (insn.opcode == Opcode::kAttest) {
      cpu->set_reg(insn.rd, 0x5AFE);
      return true;
    }
    return false;
  });
  RunProgram("attest r3, r1\nhalt\n");
  EXPECT_FALSE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->reg(3), 0x5AFEu);
}

TEST_F(CpuTest, RunWatchdogStopsInfiniteLoop) {
  RunProgram("loop: jmp loop\n", /*max_instructions=*/100);
  EXPECT_FALSE(cpu_->halted());  // Not halted, just out of budget.
  EXPECT_GE(cpu_->stats().instructions, 100u);
}

}  // namespace
}  // namespace trustlite
