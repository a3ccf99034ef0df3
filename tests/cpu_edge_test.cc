// Copyright 2026 The TrustLite Reproduction Authors.
// CPU edge cases: shift masking, arithmetic wraparound, unsigned/signed
// comparison corners, iret round trips, SWI vectors, interrupt-enable
// windows, and instruction-fetch subjects across control transfers.

#include <gtest/gtest.h>

#include "src/cpu/cpu.h"
#include "src/dev/sysctl.h"
#include "src/dev/timer.h"
#include "src/isa/assembler.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"

namespace trustlite {
namespace {

constexpr uint32_t kOrigin = 0x1000;

class CpuEdgeTest : public ::testing::Test {
 protected:
  CpuEdgeTest() : ram_("ram", 0, 0x2'0000), sysctl_(kSysCtlBase) {
    bus_.Attach(&ram_);
    bus_.Attach(&sysctl_);
    cpu_ = std::make_unique<Cpu>(&bus_, &sysctl_, CpuConfig{});
  }

  void RunProgram(const std::string& source, uint64_t max = 100000) {
    Result<AsmOutput> out = Assemble(source, kOrigin);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    uint32_t base = 0;
    const std::vector<uint8_t> image = out->Flatten(&base);
    ram_.LoadBytes(base, image);
    cpu_->Reset(kOrigin);
    cpu_->Run(max);
  }

  Bus bus_;
  Ram ram_;
  SysCtl sysctl_;
  std::unique_ptr<Cpu> cpu_;
};

TEST_F(CpuEdgeTest, ShiftAmountsAreMaskedTo5Bits) {
  RunProgram(R"(
    movi r1, 1
    movi r2, 33           ; 33 & 31 == 1
    shl  r3, r1, r2       ; 1 << 1 = 2
    movi r4, -1
    shri r5, r4, 0        ; no-op shift
    movi r6, 32
    shr  r7, r4, r6       ; 32 & 31 == 0 -> unchanged
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 2u);
  EXPECT_EQ(cpu_->reg(5), 0xFFFFFFFFu);
  EXPECT_EQ(cpu_->reg(7), 0xFFFFFFFFu);
}

TEST_F(CpuEdgeTest, ArithmeticWrapsModulo32) {
  RunProgram(R"(
    li   r1, 0x7FFFFFFF
    movi r2, 1
    add  r3, r1, r2       ; signed overflow wraps
    li   r4, 0xFFFFFFFF
    add  r5, r4, r2       ; unsigned wrap to 0
    li   r6, 0x10000
    mul  r7, r6, r6       ; 2^32 wraps to 0
    movi r8, 0
    sub  r9, r8, r2       ; 0 - 1
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 0x80000000u);
  EXPECT_EQ(cpu_->reg(5), 0u);
  EXPECT_EQ(cpu_->reg(7), 0u);
  EXPECT_EQ(cpu_->reg(9), 0xFFFFFFFFu);
}

TEST_F(CpuEdgeTest, SignedUnsignedComparisonCorners) {
  RunProgram(R"(
    li   r1, 0x80000000   ; INT_MIN
    movi r2, 0
    slt  r3, r1, r2       ; INT_MIN < 0 signed -> 1
    sltu r4, r1, r2       ; huge unsigned < 0 -> 0
    slt  r5, r2, r1       ; 0 < INT_MIN signed -> 0
    sltu r6, r2, r1       ; 0 < huge unsigned -> 1
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 1u);
  EXPECT_EQ(cpu_->reg(4), 0u);
  EXPECT_EQ(cpu_->reg(5), 0u);
  EXPECT_EQ(cpu_->reg(6), 1u);
}

TEST_F(CpuEdgeTest, ByteOperationsZeroExtendAndTruncate) {
  RunProgram(R"(
    li   r1, 0x8000
    li   r2, 0xFFFFFFAB
    stb  r2, [r1]          ; stores 0xAB only
    ldb  r3, [r1]          ; zero-extends
    ldw  r4, [r1]
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 0xABu);
  EXPECT_EQ(cpu_->reg(4), 0xABu);  // Other bytes were zero.
}

TEST_F(CpuEdgeTest, JalrThroughLrItself) {
  RunProgram(R"(
    la   lr, target
    jalr lr                ; target read before lr is overwritten
    halt
target:
    movi r1, 55
    halt
)");
  EXPECT_EQ(cpu_->reg(1), 55u);
  // lr now points after the jalr.
  EXPECT_EQ(cpu_->reg(kRegLr), kOrigin + 12u);
}

TEST_F(CpuEdgeTest, IretRestoresFlagsExactly) {
  RunProgram(R"(
    li  sp, 0x9000
    ; hand-build a frame: resume at cont with IF set
    la  r1, cont
    movi r2, 1             ; FLAGS: IF
    addi sp, sp, -8
    stw r1, [sp + 0]
    stw r2, [sp + 4]
    cli
    iret
cont:
    movi r3, 7
    halt
)");
  EXPECT_EQ(cpu_->reg(3), 7u);
  EXPECT_EQ(cpu_->flags() & kFlagIf, kFlagIf);
  EXPECT_EQ(cpu_->reg(kRegSp), 0x9000u);
}

TEST_F(CpuEdgeTest, AllEightSwiVectorsDispatch) {
  RunProgram(R"(
    li  r1, 0xF0000000
    la  r2, handler
    ; install the same handler in all 8 SWI slots (offsets 32..60)
    stw r2, [r1 + 32]
    stw r2, [r1 + 36]
    stw r2, [r1 + 40]
    stw r2, [r1 + 44]
    stw r2, [r1 + 48]
    stw r2, [r1 + 52]
    stw r2, [r1 + 56]
    stw r2, [r1 + 60]
    li  sp, 0x9000
    movi r10, 0
    swi 0
    swi 1
    swi 2
    swi 3
    swi 4
    swi 5
    swi 6
    swi 7
    halt
handler:
    ldw r5, [sp + 0]       ; error code = 16 + vector
    add r10, r10, r5
    addi sp, sp, 4
    iret
)");
  // Sum of (16..23) = 156.
  EXPECT_EQ(cpu_->reg(10), 156u);
  EXPECT_EQ(cpu_->stats().exceptions, 8u);
}

TEST_F(CpuEdgeTest, SwiVectorsWrapModulo8) {
  RunProgram(R"(
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 36]      ; slot 9 = SWI 1
    li  sp, 0x9000
    swi 9                  ; 9 & 7 == 1
    halt
handler:
    movi r3, 1
    addi sp, sp, 4
    iret
)");
  EXPECT_EQ(cpu_->reg(3), 1u);
}

TEST_F(CpuEdgeTest, BranchBackwardAndForwardExtremesWithinRam) {
  RunProgram(R"(
    movi r1, 0
    movi r2, 3
up:
    addi r1, r1, 1
    blt  r1, r2, up
    beq  r1, r2, down
    halt
down:
    movi r3, 1
    halt
)");
  EXPECT_EQ(cpu_->reg(1), 3u);
  EXPECT_EQ(cpu_->reg(3), 1u);
}

TEST_F(CpuEdgeTest, InterruptDisabledUntilSti) {
  // Timer-less variant: the SWI path always works, but IRQs respect IF.
  // Use a second CPU wired to a timer to check the IF gate.
  Bus bus;
  Ram ram("ram", 0, 0x20000);
  SysCtl sysctl(kSysCtlBase);
  Timer timer(kTimerBase, 0);
  bus.Attach(&ram);
  bus.Attach(&sysctl);
  bus.Attach(&timer);
  Cpu cpu(&bus, &sysctl, CpuConfig{});
  cpu.AddIrqSource(&timer);

  Result<AsmOutput> out = Assemble(R"(
    li  r1, 0xF0002000
    movi r2, 10
    stw r2, [r1 + 4]
    la  r2, isr
    stw r2, [r1 + 12]
    movi r2, 3
    stw r2, [r1 + 0]
    li  sp, 0x9000
    ; run far past the timer period with IF clear: no interrupt
    movi r3, 0
    movi r4, 100
spin:
    addi r3, r3, 1
    bne r3, r4, spin
    movi r5, 1             ; reached without interruption
    sti
hang:
    jmp hang
isr:
    movi r6, 1
    halt
)",
                                   kOrigin);
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  ram.LoadBytes(kOrigin, out->Flatten(&base));
  cpu.Reset(kOrigin);
  cpu.Run(100000);
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(cpu.reg(5), 1u);  // The spin completed untouched.
  EXPECT_EQ(cpu.reg(6), 1u);  // The IRQ landed only after sti.
}

TEST_F(CpuEdgeTest, HaltIsTerminalForStep) {
  RunProgram("halt\n");
  EXPECT_TRUE(cpu_->halted());
  const uint64_t before = cpu_->cycles();
  EXPECT_EQ(cpu_->Step(), StepEvent::kHalted);
  EXPECT_EQ(cpu_->Step(), StepEvent::kHalted);
  EXPECT_EQ(cpu_->cycles(), before);  // No time passes when halted.
}

TEST_F(CpuEdgeTest, ResetClearsTrapAndRegisters) {
  RunProgram(R"(
    li  r1, 0xE0000000
    ldw r2, [r1]           ; unhandled bus error -> trap
)");
  ASSERT_TRUE(cpu_->trap().valid);
  cpu_->Reset(kOrigin);
  EXPECT_FALSE(cpu_->trap().valid);
  EXPECT_FALSE(cpu_->halted());
  for (int i = 0; i < kNumRegisters; ++i) {
    EXPECT_EQ(cpu_->reg(i), 0u) << i;
  }
  EXPECT_EQ(cpu_->ip(), kOrigin);
}

TEST_F(CpuEdgeTest, StoreByteToUnmappedFaults) {
  RunProgram(R"(
    li  r1, 0xE0000000
    movi r2, 1
    stb r2, [r1]
    halt
)");
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcBusError);
}

TEST_F(CpuEdgeTest, FetchFromUnmappedMemoryTraps) {
  RunProgram(R"(
    li  r1, 0xE0000000
    jr  r1
)");
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcBusError);
  EXPECT_EQ(cpu_->trap().ip, 0xE0000000u);
}


TEST(CycleModelTest, CustomCostsFlowThroughTheInterpreter) {
  // The cycle model is a configuration, not hard-coded: double every cost
  // and the measured totals double.
  Bus bus;
  Ram ram("ram", 0, 0x20000);
  SysCtl sysctl(kSysCtlBase);
  bus.Attach(&ram);
  bus.Attach(&sysctl);
  CpuConfig config;
  config.cycles.alu = 2;
  config.cycles.memory = 4;
  config.cycles.control_taken = 4;
  config.cycles.control_not_taken = 2;
  config.cycles.mul = 6;
  Cpu cpu(&bus, &sysctl, config);

  Result<AsmOutput> out = Assemble(R"(
    movi r1, 1
    mul  r2, r1, r1
    li   r3, 0x8000
    ldw  r4, [r3]
    jmp  end
end:
    halt
)",
                                   0x1000);
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  ram.LoadBytes(0x1000, out->Flatten(&base));
  cpu.Reset(0x1000);
  cpu.Run(100);
  // movi(2) + mul(6) + movi/li(2) + ldw(4) + jmp(4) + halt(2) = 20.
  EXPECT_EQ(cpu.cycles(), 20u);
}

TEST(CycleModelTest, ExceptionCostsAreParameters) {
  Bus bus;
  Ram ram("ram", 0, 0x20000);
  SysCtl sysctl(kSysCtlBase);
  bus.Attach(&ram);
  bus.Attach(&sysctl);
  CpuConfig config;
  config.cycles.exception_base = 30;  // A hypothetical slower engine.
  Cpu cpu(&bus, &sysctl, config);

  Result<AsmOutput> out = Assemble(R"(
    li  r1, 0xF0000000
    la  r2, handler
    stw r2, [r1 + 32]
    li  sp, 0x9000
    swi 0
    halt
handler:
    halt
)",
                                   0x1000);
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  ram.LoadBytes(0x1000, out->Flatten(&base));
  cpu.Reset(0x1000);
  cpu.Run(100);
  EXPECT_EQ(cpu.last_exception_entry_cycles(), 30u);
}

TEST_F(CpuEdgeTest, MisalignedJumpTargetFaultsDespiteDecodeCache) {
  // Execute `target` once at its aligned address (populating its decode
  // cache line), then jump back into the middle of the same word. The
  // cache indexes lines by ip >> 2, so target and target + 2 alias; the
  // misaligned IP must raise an alignment fault instead of replaying the
  // cached decode of the aligned word.
  RunProgram(R"(
    movi r4, 0
    la   r2, target
    jmp  target
back:
    addi r2, r2, 2
    jr   r2               ; target + 2: must trap, not hit the cached line
    halt
target:
    addi r4, r4, 1
    movi r5, 1
    beq  r4, r5, back
    li   r6, 0xBAD        ; reachable only if the misaligned fetch executed
    halt
)");
  EXPECT_TRUE(cpu_->halted());
  ASSERT_TRUE(cpu_->trap().valid);
  EXPECT_EQ(cpu_->trap().exception_class, kExcAlign);
  EXPECT_EQ(cpu_->reg(4), 1u);  // target ran exactly once, aligned.
  EXPECT_NE(cpu_->reg(6), 0xBADu);
}

TEST_F(CpuEdgeTest, LargestBudgetsRunToCleanHalt) {
  // The exception-storm watchdog allows budget * 8 + 1024 steps. For a
  // budget of 2^61 or more that product used to wrap, and UINT64_MAX
  // ("unbounded") tripped the watchdog after 1,017 clean instructions. The
  // bound saturates now, on the fast run loop and on the Step() loops, for
  // instruction and cycle budgets alike.
  Result<AsmOutput> out = Assemble(R"(
    movi r1, 0
    movi r2, 1000
loop:
    addi r1, r1, 1
    bne  r1, r2, loop
    halt
)",
                                   kOrigin);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  ram_.LoadBytes(kOrigin, out->Flatten(&base));
  for (const bool fast_path : {true, false}) {
    for (const bool cycle_bound : {false, true}) {
      CpuConfig config;
      config.fast_path = fast_path;
      Cpu cpu(&bus_, &sysctl_, config);
      cpu.Reset(kOrigin);
      const StepEvent event =
          cycle_bound ? cpu.RunUntilCycle(UINT64_MAX) : cpu.Run(UINT64_MAX);
      SCOPED_TRACE(testing::Message() << "fast_path=" << fast_path
                                      << " cycle_bound=" << cycle_bound);
      EXPECT_EQ(event, StepEvent::kHalted);
      EXPECT_FALSE(cpu.trap().valid) << cpu.trap().reason;
      EXPECT_EQ(cpu.reg(1), 1000u);
      EXPECT_EQ(cpu.stats().instructions, 2003u);
    }
  }
}

}  // namespace
}  // namespace trustlite
