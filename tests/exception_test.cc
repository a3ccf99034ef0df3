// Copyright 2026 The TrustLite Reproduction Authors.
//
// Secure exception engine tests (paper Sec. 3.4 / Fig. 4 / Sec. 5.4):
// hardware state save to the trustlet stack, Trustlet-Table SP update,
// register clearing, OS stack switch, exact cycle costs, trustlet
// termination on a corrupt stack pointer, faulting-IP sanitization, and
// continue()-based resumption.
//
// The MPU is programmed directly (no Secure Loader) so each scenario
// controls the exact region/rule layout.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/cpu/cpu.h"
#include "src/isa/assembler.h"
#include "src/mem/layout.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"
#include "tests/reference_state_digest.h"

namespace trustlite {
namespace {

// Fixture memory map (inside SRAM):
constexpr uint32_t kTlCode = 0x0001'1000;
constexpr uint32_t kTlCodeEnd = 0x0001'1100;
constexpr uint32_t kTlData = 0x0001'2000;
constexpr uint32_t kTlDataEnd = 0x0001'2100;  // Trustlet stack top.
constexpr uint32_t kOsCode = 0x0001'3000;
constexpr uint32_t kOsCodeEnd = 0x0001'3200;
constexpr uint32_t kOsStackTop = 0x0001'4000;  // In open memory.
constexpr uint32_t kTlSpSlot = 0x0001'5000;    // Trustlet Table SP slots.
constexpr uint32_t kOsSpSlot = 0x0001'5004;
constexpr uint32_t kObsBase = 0x0001'6000;   // ISR observation area (open).
constexpr uint32_t kCountAddr = 0x0001'6100;  // Trustlet loop counter cell.

constexpr int kRegionTlCode = 0;
constexpr int kRegionTlData = 1;
constexpr int kRegionOsCode = 2;

class ExceptionTest : public ::testing::Test {
 protected:
  ExceptionTest() : platform_(MakeConfig()) {}

  static PlatformConfig MakeConfig() {
    PlatformConfig config;
    config.secure_exceptions = true;
    return config;
  }

  static void SetRegion(Platform& p, int index, uint32_t base, uint32_t end,
                        uint32_t attr, uint32_t sp_slot = 0) {
    const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                         static_cast<uint32_t>(index) * kMpuRegionStride;
    ASSERT_TRUE(p.bus().HostWriteWord(reg + 0, base));
    ASSERT_TRUE(p.bus().HostWriteWord(reg + 4, end));
    ASSERT_TRUE(p.bus().HostWriteWord(reg + 8, attr));
    ASSERT_TRUE(p.bus().HostWriteWord(reg + 12, sp_slot));
  }

  static void SetRule(Platform& p, int index, uint32_t subject,
                      uint32_t object, bool r, bool w, bool x) {
    ASSERT_TRUE(p.bus().HostWriteWord(
        kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4,
        EncodeMpuRule(subject, object, r, w, x)));
  }

  // Standard layout: trustlet code/data regions + OS code region (attr OS),
  // self rules, entry rule, OS rules.
  static void ProgramStandardMpu(Platform& p) {
    SetRegion(p, kRegionTlCode, kTlCode, kTlCodeEnd,
              kMpuAttrEnable | kMpuAttrCode, kTlSpSlot);
    SetRegion(p, kRegionTlData, kTlData, kTlDataEnd, kMpuAttrEnable);
    SetRegion(p, kRegionOsCode, kOsCode, kOsCodeEnd,
              kMpuAttrEnable | kMpuAttrCode | kMpuAttrOs, kOsSpSlot);
    SetRule(p, 0, kRegionTlCode, kRegionTlCode, true, false, true);
    SetRule(p, 1, kRegionTlCode, kRegionTlData, true, true, false);
    SetRule(p, 2, kMpuSubjectAny, kRegionTlCode, false, false, true);  // entry
    SetRule(p, 3, kRegionOsCode, kRegionOsCode, true, false, true);
    // SPOS lives in the Trustlet-Table slot; the engine reads it through its
    // private port, software never needs to.
    ASSERT_TRUE(p.bus().HostWriteWord(kOsSpSlot, kOsStackTop));
    ASSERT_TRUE(
        p.bus().HostWriteWord(kMpuMmioBase + kMpuRegCtrl, kMpuCtrlEnable));
  }
  void ProgramStandardMpu() { ProgramStandardMpu(platform_); }

  // Loads `source` (absolute .org directives inside) into SRAM.
  static void LoadGuest(Platform& p, const std::string& source,
                        std::map<std::string, uint32_t>* symbols) {
    Result<AsmOutput> out = Assemble(source);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const AsmChunk& chunk : out->chunks) {
      ASSERT_TRUE(p.bus().HostWriteBytes(chunk.base, chunk.bytes));
    }
    *symbols = out->symbols;
  }
  void LoadGuest(const std::string& source) {
    LoadGuest(platform_, source, &symbols_);
  }

  static uint32_t Word(Platform& p, uint32_t addr) {
    uint32_t value = 0;
    EXPECT_TRUE(p.bus().HostReadWord(addr, &value)) << addr;
    return value;
  }
  uint32_t Word(uint32_t addr) { return Word(platform_, addr); }

  // The trustlet program: entry vector + dispatch + continue() restore +
  // main loop that sets recognizable register values. With `sleep` the loop
  // waits for an interrupt (at label tl_wfi) after every count. With `user`
  // the trustlet drops to user mode (FLAGS.User) through an iret of its own
  // before the loop.
  static std::string TrustletSource(uint32_t stack_init = kTlDataEnd,
                                    uint32_t counter_addr = kCountAddr,
                                    bool sleep = false, bool user = false) {
    std::string src;
    src += ".org 0x11000\n";
    src += R"(
entry:
    jmp  dispatch
dispatch:
    movi r15, 0
    beq  r0, r15, do_continue
tl_main:
)";
    src += "    li  sp, " + std::to_string(stack_init) + "\n";
    src += R"(
    movi r1, 0
    li   r2, 0xAAAA
    li   r3, 0x5555
    li   r4, )";
    src += std::to_string(counter_addr) + "\n";
    if (user) {
      src += R"(
    cli
    la   r5, loop
    movi r6, 3             ; IF | User
    addi sp, sp, -8
    stw  r5, [sp + 0]
    stw  r6, [sp + 4]
    iret
)";
    }
    src += R"(
loop:
    addi r1, r1, 1
    stw  r1, [r4]
)";
    if (sleep) {
      src += "tl_wfi:\n    wfi\n";
    }
    src += R"(
    jmp  loop
do_continue:
    li   r15, 0x15000
    ldw  sp,  [r15]
    ldw  r0,  [sp + 0]
    ldw  r1,  [sp + 4]
    ldw  r2,  [sp + 8]
    ldw  r3,  [sp + 12]
    ldw  r4,  [sp + 16]
    ldw  r5,  [sp + 20]
    ldw  r6,  [sp + 24]
    ldw  r7,  [sp + 28]
    ldw  r8,  [sp + 32]
    ldw  r9,  [sp + 36]
    ldw  r10, [sp + 40]
    ldw  r11, [sp + 44]
    ldw  r12, [sp + 48]
    ldw  lr,  [sp + 52]
    ldw  r15, [sp + 56]
    addi sp,  sp, 60
    iret
)";
    return src;
  }

  // OS program: runs `prologue`, configures a one-shot timer interrupt and
  // jumps into the trustlet; `isr_body` runs on interrupt with the OS stack.
  static std::string OsSource(const std::string& isr_body,
                              uint32_t timer_period = 60,
                              const std::string& prologue = "") {
    std::string src = ".org 0x13000\nos_start:\n" + prologue;
    src += "    li  r1, 0x" + ToHex(kTimerBase) + "\n";
    src += "    movi r2, " + std::to_string(timer_period) + "\n";
    src += R"(
    stw r2, [r1 + 4]       ; PERIOD
    la  r2, os_isr
    stw r2, [r1 + 12]      ; HANDLER
    movi r2, 3             ; enable | irq enable (one shot)
    stw r2, [r1 + 0]
    sti
    movi r0, 1             ; "start fresh" command
    li   r3, 0x11000
    jr   r3
os_isr:
)";
    src += isr_body;
    return src;
  }

  static std::string ToHex(uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%x", v);
    return buf;
  }

  Platform platform_;
  std::map<std::string, uint32_t> symbols_;
};

// Standard ISR: records the (cleared) registers, error code, reported IP
// and the ISR's stack pointer, then halts.
constexpr const char* kRecordingIsr = R"(
    li  r4, 0x16000
    stw r1, [r4 + 0]
    stw r2, [r4 + 4]
    stw r3, [r4 + 8]
    ldw r5, [sp + 0]
    stw r5, [r4 + 12]      ; error code
    ldw r5, [sp + 4]
    stw r5, [r4 + 16]      ; reported faulting IP
    stw sp, [r4 + 20]      ; ISR stack pointer
    stw r6, [r4 + 24]
    stw r12, [r4 + 28]
    stw lr, [r4 + 32]
    halt
)";

// Continuing ISR: records the count at the first interrupt, re-arms the
// one-shot timer and resumes the trustlet via its entry vector with r0 = 0
// (continue()); records the count again at the second interrupt and halts.
constexpr const char* kContinueIsr = R"(
    li  r4, 0x16000
    ldw r5, [r4 + 48]      ; resume counter (test scratch)
    addi r5, r5, 1
    stw r5, [r4 + 48]
    movi r6, 2
    beq r5, r6, isr_done   ; second interrupt: stop
    li  r7, 0x16100
    ldw r7, [r7]
    stw r7, [r4 + 52]      ; count at first interrupt
    ; re-arm the one-shot timer for a second preemption
    li  r1, 0xF0002000
    movi r2, 200
    stw r2, [r1 + 4]
    movi r2, 3
    stw r2, [r1 + 0]
    movi r0, 0             ; continue()
    li   r3, 0x11000
    jr   r3
isr_done:
    li  r7, 0x16100
    ldw r7, [r7]
    stw r7, [r4 + 56]      ; count at second interrupt
    halt
)";

TEST_F(ExceptionTest, TrustletInterruptClearsRegistersAndSwitchesStacks) {
  ProgramStandardMpu();
  LoadGuest(TrustletSource());
  LoadGuest(OsSource(kRecordingIsr));
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_FALSE(platform_.cpu().trap().valid) << platform_.cpu().trap().reason;

  // All GPRs observed by the ISR are zero (the trustlet had r1 counter,
  // r2 = 0xAAAA, r3 = 0x5555 live).
  EXPECT_EQ(Word(kObsBase + 0), 0u);
  EXPECT_EQ(Word(kObsBase + 4), 0u);
  EXPECT_EQ(Word(kObsBase + 8), 0u);
  EXPECT_EQ(Word(kObsBase + 24), 0u);
  EXPECT_EQ(Word(kObsBase + 28), 0u);
  EXPECT_EQ(Word(kObsBase + 32), 0u);

  // Error code: IRQ line 0 (class 8) with the trustlet bit.
  EXPECT_EQ(Word(kObsBase + 12), (kExcIrqBase | kErrorFromTrustlet));

  // Reported IP lies within the trustlet's loop.
  const uint32_t reported_ip = Word(kObsBase + 16);
  EXPECT_GE(reported_ip, kTlCode);
  EXPECT_LT(reported_ip, kTlCodeEnd);

  // The ISR ran on the OS stack (SPOS minus the 2-word info frame).
  EXPECT_EQ(Word(kObsBase + 20), kOsStackTop - 8);

  // The Trustlet Table slot holds the saved SP, and the frame preserves the
  // trustlet's registers.
  const uint32_t saved_sp = Word(kTlSpSlot);
  EXPECT_GE(saved_sp, kTlData);
  EXPECT_LT(saved_sp, kTlDataEnd);
  const uint32_t saved_r1 = Word(saved_sp + 4);
  const uint32_t saved_r2 = Word(saved_sp + 8);
  const uint32_t saved_r3 = Word(saved_sp + 12);
  EXPECT_GT(saved_r1, 0u);
  EXPECT_EQ(saved_r2, 0xAAAAu);
  EXPECT_EQ(saved_r3, 0x5555u);
  // Saved resume IP is inside the loop; saved FLAGS has IF set.
  const uint32_t saved_ip = Word(saved_sp + 60);
  EXPECT_GE(saved_ip, kTlCode);
  EXPECT_LT(saved_ip, kTlCodeEnd);
  EXPECT_EQ(Word(saved_sp + 64) & 1u, 1u);

  // Cycle cost: 21 (base) + 2 (detect) + 10 (save) + 9 (clear + SP) = 42,
  // i.e. 100% overhead over the regular flow (Sec. 5.4).
  EXPECT_EQ(platform_.cpu().last_exception_entry_cycles(), 42u);
  EXPECT_EQ(platform_.cpu().stats().trustlet_interrupts, 1u);
}

TEST_F(ExceptionTest, OsInterruptTakesRegularPathPlusDetect) {
  ProgramStandardMpu();
  // OS never enters the trustlet; it loops in its own region.
  LoadGuest(R"(
.org 0x13000
os_start:
    li  r1, 0xF0002000
    movi r2, 60
    stw r2, [r1 + 4]
    la  r2, os_isr
    stw r2, [r1 + 12]
    movi r2, 3
    stw r2, [r1 + 0]
    movi r7, 0x77          ; live value that must survive
    sti
spin:
    jmp spin
os_isr:
    li  r4, 0x16000
    stw r7, [r4 + 0]       ; NOT cleared on the regular path
    ldw r5, [sp + 0]
    stw r5, [r4 + 12]      ; error code (no trustlet bit)
    halt
)");
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_FALSE(platform_.cpu().trap().valid) << platform_.cpu().trap().reason;

  EXPECT_EQ(Word(kObsBase + 0), 0x77u);  // Registers preserved.
  EXPECT_EQ(Word(kObsBase + 12), kExcIrqBase);  // No trustlet bit.
  // 21 + 2 (the secure engine still checks who was interrupted).
  EXPECT_EQ(platform_.cpu().last_exception_entry_cycles(), 23u);
  EXPECT_EQ(platform_.cpu().stats().trustlet_interrupts, 0u);
}

TEST_F(ExceptionTest, UnprotectedCodeInterruptAlsoRegularPath) {
  ProgramStandardMpu();
  // Code in open memory (no region), interrupted by the timer.
  LoadGuest(R"(
.org 0x18000
app_start:
    li  r1, 0xF0002000
    movi r2, 40
    stw r2, [r1 + 4]
    la  r2, app_isr
    stw r2, [r1 + 12]
    movi r2, 3
    stw r2, [r1 + 0]
    movi r9, 0x99
    sti
spin:
    jmp spin
app_isr:
    li  r4, 0x16000
    stw r9, [r4 + 0]
    halt
)");
  platform_.cpu().Reset(0x18000);
  platform_.cpu().set_reg(kRegSp, 0x19000);
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  EXPECT_EQ(Word(kObsBase + 0), 0x99u);
  EXPECT_EQ(platform_.cpu().last_exception_entry_cycles(), 23u);
}

TEST_F(ExceptionTest, ContinueResumesInterruptedTrustlet) {
  ProgramStandardMpu();
  LoadGuest(TrustletSource());
  LoadGuest(OsSource(kContinueIsr));
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  platform_.Run(200000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_FALSE(platform_.cpu().trap().valid) << platform_.cpu().trap().reason;

  const uint32_t count_first = Word(kObsBase + 52);
  const uint32_t count_second = Word(kObsBase + 56);
  EXPECT_GT(count_first, 0u);
  // The trustlet kept counting where it left off: strictly greater, and the
  // state (r2/r3 markers) was never re-initialized because execution resumed
  // inside the loop rather than at tl_main.
  EXPECT_GT(count_second, count_first);
  EXPECT_EQ(platform_.cpu().stats().trustlet_interrupts, 2u);
}

TEST_F(ExceptionTest, CorruptStackTerminatesTrustlet) {
  ProgramStandardMpu();
  // Trustlet initializes its stack pointer into the OS code region, where it
  // has no write permission: the engine's save faults (footnote 1).
  LoadGuest(TrustletSource(/*stack_init=*/kOsCode + 0x100));
  LoadGuest(OsSource(kRecordingIsr));
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  // Find os_isr: it was the last LoadGuest with OsSource -> symbol table.
  // Simpler: run once to let the OS configure the timer, but we must set the
  // fault handler before the interrupt fires. The OS ISR address equals the
  // timer handler register after a few steps; run a handful of instructions
  // then copy it.
  for (int i = 0; i < 8; ++i) {
    platform_.cpu().Step();
  }
  uint32_t isr_addr = 0;
  ASSERT_TRUE(
      platform_.bus().HostReadWord(kTimerBase + kTimerRegHandler, &isr_addr));
  ASSERT_NE(isr_addr, 0u);
  ASSERT_TRUE(platform_.bus().HostWriteWord(
      kSysCtlBase + kSysCtlRegHandlerBase + 0, isr_addr));  // MPU fault slot.
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_FALSE(platform_.cpu().trap().valid) << platform_.cpu().trap().reason;

  // The ISR observed cleared registers and an MPU-fault error code with the
  // trustlet bit.
  EXPECT_EQ(Word(kObsBase + 0), 0u);
  EXPECT_EQ(Word(kObsBase + 12), (kExcMpuFault | kErrorFromTrustlet));
  // Reported IP is sanitized to the entry vector on termination.
  EXPECT_EQ(Word(kObsBase + 16), kTlCode);
}

TEST_F(ExceptionTest, SanitizedFaultingIpPointsToEntryVector) {
  PlatformConfig config;
  config.secure_exceptions = true;
  config.sanitize_faulting_ip = true;
  Platform platform(config);

  auto write_region = [&](int index, uint32_t base, uint32_t end,
                          uint32_t attr, uint32_t sp_slot) {
    const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                         static_cast<uint32_t>(index) * kMpuRegionStride;
    ASSERT_TRUE(platform.bus().HostWriteWord(reg + 0, base));
    ASSERT_TRUE(platform.bus().HostWriteWord(reg + 4, end));
    ASSERT_TRUE(platform.bus().HostWriteWord(reg + 8, attr));
    ASSERT_TRUE(platform.bus().HostWriteWord(reg + 12, sp_slot));
  };
  write_region(0, kTlCode, kTlCodeEnd, kMpuAttrEnable | kMpuAttrCode,
               kTlSpSlot);
  write_region(1, kTlData, kTlDataEnd, kMpuAttrEnable, 0);
  write_region(2, kOsCode, kOsCodeEnd,
               kMpuAttrEnable | kMpuAttrCode | kMpuAttrOs, kOsSpSlot);
  auto write_rule = [&](int index, uint32_t subject, uint32_t object, bool r,
                        bool w, bool x) {
    ASSERT_TRUE(platform.bus().HostWriteWord(
        kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4,
        EncodeMpuRule(subject, object, r, w, x)));
  };
  write_rule(0, 0, 0, true, false, true);
  write_rule(1, 0, 1, true, true, false);
  write_rule(2, kMpuSubjectAny, 0, false, false, true);
  write_rule(3, 2, 2, true, false, true);
  ASSERT_TRUE(platform.bus().HostWriteWord(kOsSpSlot, kOsStackTop));
  ASSERT_TRUE(platform.bus().HostWriteWord(kMpuMmioBase + kMpuRegCtrl,
                                           kMpuCtrlEnable));

  Result<AsmOutput> tl = Assemble(TrustletSource());
  ASSERT_TRUE(tl.ok());
  for (const AsmChunk& chunk : tl->chunks) {
    ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  Result<AsmOutput> os = Assemble(OsSource(kRecordingIsr));
  ASSERT_TRUE(os.ok());
  for (const AsmChunk& chunk : os->chunks) {
    ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  platform.cpu().Reset(kOsCode);
  platform.cpu().set_reg(kRegSp, kOsStackTop);
  platform.Run(100000);
  ASSERT_TRUE(platform.cpu().halted());

  uint32_t reported = 0;
  ASSERT_TRUE(platform.bus().HostReadWord(kObsBase + 16, &reported));
  EXPECT_EQ(reported, kTlCode);  // Entry vector, not the precise loop IP.
}

TEST_F(ExceptionTest, DoubleFaultMidEntryNeverExposesTrustletRegisters) {
  ProgramStandardMpu();
  // Same corrupt-stack scenario as above, but with NO fault handler
  // installed: the engine's save faults mid-entry, the resulting MPU fault
  // has nowhere to vector, and the platform halts on the double-fault path.
  // The trustlet had r1 (counter), r2 = 0xAAAA and r3 = 0x5555 live at the
  // moment of the interrupt; none of them may survive into the halted
  // register file — the clear must precede the handler dispatch, not follow
  // a successful one.
  LoadGuest(TrustletSource(/*stack_init=*/kOsCode + 0x100));
  LoadGuest(OsSource(kRecordingIsr));
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_TRUE(platform_.cpu().trap().valid);
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcMpuFault);
  for (int r = 0; r < kNumRegisters; ++r) {
    EXPECT_EQ(platform_.cpu().reg(r), 0u) << "r" << r;
  }
}

TEST_F(ExceptionTest, IsrCannotReadTrustletSavedState) {
  ProgramStandardMpu();
  LoadGuest(TrustletSource());
  // Malicious ISR: attempts to read the trustlet's saved frame through the
  // Trustlet-Table SP slot. The read of the trustlet stack faults.
  LoadGuest(OsSource(R"(
    li  r5, 0x15000
    ldw r5, [r5]           ; saved SP (the slot itself is open in this
                           ; fixture; the *stack* is protected)
    ldw r6, [r5 + 4]       ; attempt to read saved r1 -> MPU fault
    li  r4, 0x16000
    stw r6, [r4]
    halt
)"));
  platform_.cpu().Reset(kOsCode);
  platform_.cpu().set_reg(kRegSp, kOsStackTop);
  platform_.Run(100000);
  ASSERT_TRUE(platform_.cpu().halted());
  // No MPU-fault handler installed: the platform traps, proving the read
  // never succeeded.
  ASSERT_TRUE(platform_.cpu().trap().valid);
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcMpuFault);
  EXPECT_EQ(Word(kObsBase + 0), 0u);  // The stolen value was never stored.
}


// ---------------------------------------------------------------------------
// Window-backed state save. When one write window of the interrupted
// trustlet covers its whole 68-byte frame, the engine stores the frame
// straight to host memory instead of pushing 17 words through the bus. Every
// scenario runs on a fast-path platform and on a fast_path=false reference
// (no windows, per-word path only) and must end in identical state.

// Counts the EA-MPU checks each secure-engine entry performs: the delta
// between the last retire before the entry and the entry's TrapEvent.
class EntryCheckProbe : public EventSink {
 public:
  explicit EntryCheckProbe(const EaMpu* mpu) : mpu_(mpu) {}
  bool WantsInstructionEvents() const override { return true; }
  void OnInstruction(const InsnEvent&) override {
    checks_before_ = mpu_->stats().checks;
  }
  void OnTrap(const TrapEvent& event) override {
    if (event.trustlet_path) {
      entry_checks.push_back(mpu_->stats().checks - checks_before_);
    }
  }
  std::vector<uint64_t> entry_checks;

 private:
  const EaMpu* mpu_;
  uint64_t checks_before_ = 0;
};

class FrameSaveTest : public ExceptionTest {
 protected:
  // The trustlet's loop counter lives in its own data region, so its first
  // store leaves a write window over the region before the timer fires.
  static constexpr uint32_t kTlCounter = kTlData + 0x80;

  FrameSaveTest() : reference_(MakeReferenceConfig()) {}

  static PlatformConfig MakeReferenceConfig() {
    PlatformConfig config = MakeConfig();
    config.fast_path = false;
    return config;
  }

  // Two regions no rule grants access to, right below and right above the
  // trustlet's data region.
  static void AddGuardRegions(Platform& p) {
    SetRegion(p, 3, kTlData - 0x100, kTlData, kMpuAttrEnable);
    SetRegion(p, 4, kTlDataEnd, kTlDataEnd + 0x100, kMpuAttrEnable);
  }

  // Trustlet B, with code and data of its own, which trustlet A may not
  // write.
  static constexpr uint32_t kTlBCode = 0x0001'7000;
  static constexpr uint32_t kTlBData = 0x0001'8000;
  static void AddTrustletB(Platform& p) {
    SetRegion(p, 3, kTlBCode, kTlBCode + 0x100, kMpuAttrEnable | kMpuAttrCode,
              kTlSpSlot + 8);
    SetRegion(p, 4, kTlBData, kTlBData + 0x100, kMpuAttrEnable);
    SetRule(p, 4, 3, 3, true, false, true);
    SetRule(p, 5, 3, 4, true, true, false);
    SetRule(p, 6, kMpuSubjectAny, 3, false, false, true);
  }

  // Everything one run leaves behind that the two platforms must agree on.
  struct Outcome {
    uint64_t cycles = 0;
    uint32_t entry_cycles = 0;
    uint64_t trustlet_interrupts = 0;
    uint32_t tt_slot = 0;
    std::vector<uint8_t> frame;    // [frame_top - 68, frame_top).
    uint32_t fault_latch[3] = {};  // EA-MPU FAULT_IP / _ADDR / _INFO.
    uint32_t isr_error = 0;
    uint32_t isr_reported_ip = 0;
    std::vector<uint64_t> entry_checks;
    TrapInfo trap;
  };

  // Runs `guest` (trustlet and OS, absolute .org) from os_start on the
  // standard layout plus `extra_mpu`, until the guest halts, with a trap
  // only when `expect_trap`. The ISR is also the MPU-fault handler
  // (footnote 1).
  Outcome RunScenario(Platform& p, const std::string& guest,
                      uint32_t frame_top, void (*extra_mpu)(Platform&),
                      bool expect_trap = false) {
    Outcome outcome;
    ProgramStandardMpu(p);
    if (extra_mpu != nullptr) {
      extra_mpu(p);
    }
    std::map<std::string, uint32_t> symbols;
    LoadGuest(p, guest, &symbols);
    EXPECT_TRUE(p.bus().HostWriteWord(kSysCtlBase + kSysCtlRegHandlerBase,
                                      symbols.at("os_isr")));
    EntryCheckProbe probe(p.mpu());
    p.AddEventSink(&probe);
    p.cpu().Reset(symbols.at("os_start"));
    p.cpu().set_reg(kRegSp, kOsStackTop);
    p.Run(100000);
    p.RemoveEventSink(&probe);
    EXPECT_TRUE(p.cpu().halted());
    EXPECT_EQ(p.cpu().trap().valid, expect_trap) << p.cpu().trap().reason;

    outcome.trap = p.cpu().trap();
    outcome.cycles = p.cpu().cycles();
    outcome.entry_cycles = p.cpu().last_exception_entry_cycles();
    outcome.trustlet_interrupts = p.cpu().stats().trustlet_interrupts;
    outcome.tt_slot = Word(p, kTlSpSlot);
    EXPECT_TRUE(p.bus().HostReadBytes(frame_top - kTrustletFrameBytes,
                                      kTrustletFrameBytes, &outcome.frame));
    for (int i = 0; i < 3; ++i) {
      outcome.fault_latch[i] =
          Word(p, kMpuMmioBase + kMpuRegFaultIp + 4 * static_cast<uint32_t>(i));
    }
    outcome.isr_error = Word(p, kObsBase + 12);
    outcome.isr_reported_ip = Word(p, kObsBase + 16);
    outcome.entry_checks = probe.entry_checks;
    return outcome;
  }

  // `entry_cycles` is the cost of the last exception entry: 42 for the
  // secure engine's, 23 for a regular one.
  static void ExpectSameState(const Outcome& fast, const Outcome& ref,
                              uint32_t entry_cycles = 42) {
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.entry_cycles, entry_cycles);
    EXPECT_EQ(ref.entry_cycles, entry_cycles);
    EXPECT_EQ(fast.trap.valid, ref.trap.valid);
    EXPECT_EQ(fast.trap.exception_class, ref.trap.exception_class);
    EXPECT_EQ(fast.trap.ip, ref.trap.ip);
    EXPECT_EQ(fast.trap.addr, ref.trap.addr);
    EXPECT_EQ(fast.trustlet_interrupts, ref.trustlet_interrupts);
    EXPECT_EQ(fast.tt_slot, ref.tt_slot);
    EXPECT_EQ(fast.frame, ref.frame);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(fast.fault_latch[i], ref.fault_latch[i]) << "latch " << i;
    }
    EXPECT_EQ(fast.isr_error, ref.isr_error);
    EXPECT_EQ(fast.isr_reported_ip, ref.isr_reported_ip);
  }

  // A stack pointer the per-word path cannot complete a frame at: the
  // trustlet is terminated through the MPU-fault handler, on both paths
  // identically, and the window path never engaged.
  void ExpectTerminatedIdentically(uint32_t stack_init,
                                   void (*extra_mpu)(Platform&) = nullptr) {
    const std::string guest =
        TrustletSource(stack_init, kTlCounter) + OsSource(kRecordingIsr);
    const uint32_t top = std::max(stack_init, kTrustletFrameBytes);
    const Outcome fast = RunScenario(platform_, guest, top, extra_mpu);
    const Outcome ref = RunScenario(reference_, guest, top, extra_mpu);
    ExpectSameState(fast, ref);
    EXPECT_EQ(fast.trustlet_interrupts, 1u);
    EXPECT_EQ(fast.isr_error, kExcMpuFault | kErrorFromTrustlet);
    EXPECT_EQ(fast.isr_reported_ip, kTlCode);
    EXPECT_EQ(fast.tt_slot, 0u);  // No SP was saved.
    EXPECT_EQ(fast.entry_checks, ref.entry_checks);
  }

  Platform reference_;
};

TEST_F(FrameSaveTest, WindowedSaveMatchesPerWordSave) {
  const std::string guest =
      TrustletSource(kTlDataEnd, kTlCounter) + OsSource(kRecordingIsr);
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.trustlet_interrupts, 1u);
  EXPECT_EQ(fast.tt_slot, kTlDataEnd - kTrustletFrameBytes);
  EXPECT_EQ(fast.isr_error, kExcIrqBase | kErrorFromTrustlet);
  EXPECT_EQ(fast.fault_latch[2], 0u);  // No fault anywhere.
  // The window path skipped exactly the 17 per-word stack checks; the two
  // OS-stack pushes are checked on both.
  EXPECT_EQ(fast.entry_checks, std::vector<uint64_t>{2});
  EXPECT_EQ(ref.entry_checks, std::vector<uint64_t>{19});
}

TEST_F(FrameSaveTest, PerWordSaveLeavesWindowForTheNextEntry) {
  // The trustlet never stores to its stack, so its first entry takes the
  // per-word path; the window that save leaves behind serves the second
  // entry, after continue() resumed the trustlet. The first entry's two
  // OS-stack pushes leave the handler's write window over the OS stack, so
  // the second entry's pushes are not checked either.
  const std::string guest = TrustletSource() + OsSource(kContinueIsr);
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.trustlet_interrupts, 2u);
  EXPECT_EQ(Word(platform_, kObsBase + 52), Word(reference_, kObsBase + 52));
  EXPECT_EQ(Word(platform_, kObsBase + 56), Word(reference_, kObsBase + 56));
  EXPECT_EQ(fast.entry_checks, (std::vector<uint64_t>{19, 0}));
  EXPECT_EQ(ref.entry_checks, (std::vector<uint64_t>{19, 19}));
}

TEST_F(FrameSaveTest, WindowedSaveAcrossAPageBoundaryIsInTheDigest) {
  // The data region, its write window and the frame below the stack top
  // all straddle the SRAM page boundary at kTlData. The counter store that
  // builds the window lands in the lower page, so only the window's marks
  // put the frame's words in the upper page into the state digest, as the
  // per-word save's bus stores do (DESIGN.md §15).
  constexpr uint32_t kStackTop = kTlData + 0x20;
  constexpr uint32_t kLowCounter = kTlData - 0x70;
  auto straddle = [](Platform& p) {
    SetRegion(p, kRegionTlData, kTlData - 0x80, kTlDataEnd, kMpuAttrEnable);
  };
  const std::string guest =
      TrustletSource(kStackTop, kLowCounter) + OsSource(kRecordingIsr);
  const Outcome fast = RunScenario(platform_, guest, kStackTop, straddle);
  const Outcome ref = RunScenario(reference_, guest, kStackTop, straddle);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.tt_slot, kStackTop - kTrustletFrameBytes);
  EXPECT_EQ(fast.entry_checks, std::vector<uint64_t>{2});  // Window path.
  EXPECT_EQ(PlatformStateDigest(platform_), PlatformStateDigest(reference_));
  EXPECT_EQ(PlatformStateDigest(platform_),
            Sha256Hash(ReferenceDigestStream(platform_)));
}

TEST_F(FrameSaveTest, FrameStraddlingTopOfDataRegionTerminates) {
  ExpectTerminatedIdentically(kTlDataEnd + 8, AddGuardRegions);
}

TEST_F(FrameSaveTest, FrameWithOnlyItsTopWordPastTheRegionTerminates) {
  // The counter store's window covers every word of the frame but the
  // first push: the frame must still take the per-word path and fault.
  ExpectTerminatedIdentically(kTlDataEnd + 4, AddGuardRegions);
}

TEST_F(FrameSaveTest, FrameStraddlingBaseOfDataRegionTerminates) {
  // Two words land inside the region before the push below it faults.
  ExpectTerminatedIdentically(kTlData + 8, AddGuardRegions);
}

TEST_F(FrameSaveTest, StackInUnwritableMemoryTerminates) {
  ExpectTerminatedIdentically(kOsCode + 0x100);
}

TEST_F(FrameSaveTest, StackBelowFrameSizeTerminates) {
  ExpectTerminatedIdentically(kTrustletFrameBytes - 4);
}

TEST_F(FrameSaveTest, MisalignedStackTerminates) {
  ExpectTerminatedIdentically(kTlDataEnd - 2);
}

TEST_F(FrameSaveTest, FetchFaultSaveIsCheckedAgainstTheJumper) {
  // B stores to its data (leaving a write window for subject B) and enters
  // A, which points SP into B's data and jumps into the middle of B. The
  // fetch fault's subject is A's jump, while the IP is inside B: the engine
  // must store the frame with A's authority, which faults and terminates A.
  const std::string guest = R"(
.org 0x13000
os_start:
    li   r3, 0x17000
    jr   r3
os_isr:
)" + std::string(kRecordingIsr) + R"(
.org 0x17000
b_entry:
    li   r1, 0x18000
    stw  r1, [r1]
    li   r3, 0x11000
    jr   r3
    nop
    nop
b_middle:
    nop
.org 0x11000
a_entry:
    li   sp, 0x18100
    li   r3, 0x17018
    jr   r3
)";
  const Outcome fast =
      RunScenario(platform_, guest, kTlBData + 0x100, AddTrustletB);
  const Outcome ref =
      RunScenario(reference_, guest, kTlBData + 0x100, AddTrustletB);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.trustlet_interrupts, 1u);
  EXPECT_EQ(fast.isr_error, kExcMpuFault | kErrorFromTrustlet);
  EXPECT_EQ(fast.isr_reported_ip, kTlCode);
  EXPECT_EQ(fast.tt_slot, 0u);
  EXPECT_EQ(fast.fault_latch[1], 0x17018u);  // The fetch fault latched first.
}

TEST_F(FrameSaveTest, ForeignJumpIntoPinnedLoopHeadFaults) {
  // The trustlet's loop runs as a fused group whose head is pinned to the
  // loop's back edge, so its re-entries skip the fetch Check (DESIGN.md §15,
  // "Polling at deadlines"). The timer preempts it, and the OS ISR jumps
  // straight to that head instead of the entry vector. The fetch has a
  // foreign predecessor, so it must take the real fetch and fault, at the
  // reference's cycle and with its fault registers.
  const std::string guest =
      TrustletSource(kTlDataEnd, kTlCounter) + OsSource(R"(
    ldw  r5, [sp + 0]      ; error code
    movi r6, 0
    beq  r5, r6, fault     ; class 0 from the OS: the fetch fault below
    la   r3, loop          ; the trustlet's loop head, not its entry vector
    jr   r3
fault:
)" + std::string(kRecordingIsr),
                                                        /*timer_period=*/400);
  Result<AsmOutput> assembled = Assemble(guest);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  const uint32_t loop = assembled->symbols.at("loop");
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  EXPECT_GT(platform_.cpu().stats().fusion_groups, 50u);
  EXPECT_EQ(fast.cycles, ref.cycles);
  EXPECT_EQ(fast.entry_cycles, ref.entry_cycles);
  EXPECT_EQ(fast.trustlet_interrupts, 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fast.fault_latch[i], ref.fault_latch[i]) << "latch " << i;
  }
  EXPECT_EQ(fast.fault_latch[1], loop);
  EXPECT_EQ(fast.isr_error, kExcMpuFault);
  EXPECT_EQ(fast.isr_reported_ip, loop);
  EXPECT_EQ(ref.isr_error, fast.isr_error);
  EXPECT_EQ(ref.isr_reported_ip, fast.isr_reported_ip);
}

// The engine's other window edges (DESIGN.md §15, "The yield round trip"):
// iret pops and OS-stack pushes go through a window only when one covers
// every word, and a tombstone's pinned fetch holds only for its predecessor
// under the configuration it was pinned in.

TEST_F(FrameSaveTest, IretFramePastTheDataRegionFaultsAtSp) {
  // The trustlet's load leaves a read window over its data region; its
  // iret pops [sp, sp + 8) with the second word in the guard region above.
  // The window does not cover both words, so the pops go through the bus
  // and fault, reporting sp, on both platforms.
  const std::string guest = R"(
.org 0x13000
os_start:
    li   r3, 0x11000
    jr   r3
os_isr:
)" + std::string(kRecordingIsr) + R"(
.org 0x11000
entry:
    li   sp, 0x120fc
    ldw  r1, [sp]
tl_iret:
    iret
)";
  Result<AsmOutput> assembled = Assemble(guest);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  constexpr uint32_t kSp = kTlDataEnd - 4;
  const Outcome fast = RunScenario(platform_, guest, kSp, AddGuardRegions);
  const Outcome ref = RunScenario(reference_, guest, kSp, AddGuardRegions);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.isr_error, kExcMpuFault | kErrorFromTrustlet);
  EXPECT_EQ(fast.isr_reported_ip, assembled->symbols.at("tl_iret"));
  EXPECT_EQ(fast.fault_latch[1], kTlDataEnd);  // The second pop's word.
  EXPECT_EQ(fast.tt_slot, kSp - kTrustletFrameBytes);
}

TEST_F(FrameSaveTest, OsStackLeavingItsRegionDoubleFaults) {
  // The OS stack is a region of its own with a guard region below, and its
  // SP slot sits one word above the region's base: the first push lands,
  // the second faults. The OS's own store has left the handler a write
  // window over the region, which covers the first word only.
  constexpr uint32_t kOsStackBase = kOsStackTop - 0x100;
  auto os_stack = [](Platform& p) {
    SetRegion(p, 5, kOsStackBase, kOsStackTop, kMpuAttrEnable);
    SetRegion(p, 6, kOsStackBase - 0x100, kOsStackBase, kMpuAttrEnable);
    SetRule(p, 7, kRegionOsCode, 5, true, true, false);
    ASSERT_TRUE(p.bus().HostWriteWord(kOsSpSlot, kOsStackBase + 4));
  };
  const std::string guest =
      TrustletSource(kTlDataEnd, kTlCounter) +
      OsSource(kRecordingIsr, 60, "    li  r5, 0x13f80\n    stw r5, [r5]\n");
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, os_stack,
                                   /*expect_trap=*/true);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, os_stack,
                                  /*expect_trap=*/true);
  ExpectSameState(fast, ref);
  EXPECT_STREQ(fast.trap.reason, "double fault (OS stack)");
  EXPECT_EQ(fast.trap.addr, kOsStackBase - 4);
  EXPECT_EQ(fast.fault_latch[1], kOsStackBase - 4);
  EXPECT_EQ(fast.tt_slot, kTlDataEnd - kTrustletFrameBytes);
  EXPECT_EQ(fast.isr_error, 0u);  // The ISR never ran.
}

TEST_F(FrameSaveTest, UserModeTrustletGetsPrivilegedOsPushes) {
  // The trustlet runs with FLAGS.User set. The OS-stack pushes are
  // privileged whatever FLAGS says, so the privileged write window the
  // OS's own store left over its stack serves both entries' pushes. The
  // first entry's frame takes the per-word path and leaves a user-mode
  // window, which serves the second entry's frame.
  const std::string guest =
      TrustletSource(kTlDataEnd, kCountAddr, /*sleep=*/false, /*user=*/true) +
      OsSource(kContinueIsr, 60, "    addi r5, sp, -4\n    stw  r0, [r5]\n");
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref);
  EXPECT_EQ(fast.trustlet_interrupts, 2u);
  EXPECT_EQ(Word(platform_, kObsBase + 56), Word(reference_, kObsBase + 56));
  EXPECT_EQ(LoadLe32(fast.frame.data() + 64), kFlagIf | kFlagUser);
  EXPECT_EQ(fast.entry_checks, (std::vector<uint64_t>{17, 0}));
  EXPECT_EQ(ref.entry_checks, (std::vector<uint64_t>{19, 19}));
}

TEST_F(FrameSaveTest, ForeignJumpIntoPinnedTombstoneFaults) {
  // `tomb` is a lone jmp (a tombstone) entered from the jmp before it on
  // every pass, so its fetch is pinned to that predecessor. The ISR jumps
  // straight to it, a non-entry address: the fetch has a foreign
  // predecessor, so it is real and faults, as on the reference.
  const std::string guest = R"(
.org 0x11000
entry:
    li   sp, 0x12100
    li   r4, 0x12080
loop:
    addi r1, r1, 1
    stw  r1, [r4]
    jmp  tomb
tomb:
    jmp  loop
)" + OsSource(R"(
    ldw  r5, [sp + 0]      ; error code
    movi r6, 0
    beq  r5, r6, fault     ; class 0 from the OS: the fetch fault below
    la   r3, tomb
    jr   r3
fault:
)" + std::string(kRecordingIsr),
                                                        /*timer_period=*/400);
  Result<AsmOutput> assembled = Assemble(guest);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  const uint32_t tomb = assembled->symbols.at("tomb");
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref, /*entry_cycles=*/23);
  EXPECT_EQ(fast.trustlet_interrupts, 1u);
  EXPECT_EQ(fast.fault_latch[1], tomb);
  EXPECT_EQ(fast.isr_error, kExcMpuFault);
  EXPECT_EQ(fast.isr_reported_ip, tomb);
}

TEST_F(FrameSaveTest, MpuReconfigurationDropsTheEntryVectorPin) {
  // The entry vector's `jmp dispatch` is a tombstone, entered by the ISR's
  // continue() jump both times the timer preempts the trustlet. Before the
  // second continue() the ISR revokes the entry rule: the pin made under
  // the old configuration must drop, and the real fetch faults.
  const std::string guest = TrustletSource() + OsSource(R"(
    li  r4, 0x16000
    ldw r5, [r4 + 48]      ; ISR invocations (test scratch)
    addi r5, r5, 1
    stw r5, [r4 + 48]
    movi r6, 3
    beq r5, r6, isr_done   ; third: the fetch fault below
    movi r6, 2
    bne r5, r6, resume
    li  r1, 0x)" + ToHex(kMpuMmioBase + kMpuRuleBank + 2 * 4) + R"(  ; rule 2
    movi r2, 0
    stw r2, [r1]
resume:
    li  r1, 0xF0002000
    movi r2, 200
    stw r2, [r1 + 4]
    movi r2, 3
    stw r2, [r1 + 0]
    movi r0, 0             ; continue()
    li   r3, 0x11000
    jr   r3
isr_done:
)" + std::string(kRecordingIsr));
  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref, /*entry_cycles=*/23);
  EXPECT_EQ(fast.trustlet_interrupts, 2u);
  EXPECT_EQ(Word(platform_, kObsBase + 48), 3u);
  EXPECT_EQ(fast.fault_latch[1], kTlCode);
  EXPECT_EQ(fast.isr_error, kExcMpuFault);
  EXPECT_EQ(fast.isr_reported_ip, kTlCode);
}

// ---------------------------------------------------------------------------
// wfi (DESIGN.md §15, "Sleeping instead of yielding"). The fast run loop
// sleeps to the earliest IRQ deadline in one span; Step() sleeps one cycle
// at a time. Every scenario runs on both and must agree bit for bit.

class WfiTest : public FrameSaveTest {
 protected:
  // Untrusted program at kAppCode; `sleep` labels its wfi.
  static constexpr uint32_t kAppCode = 0x0001'8000;

  void LoadApp(Platform& p, const std::string& body) {
    std::map<std::string, uint32_t> symbols;
    LoadGuest(p, ".org 0x18000\nstart:\n" + body, &symbols);
    sleep_ = symbols.at("sleep");
    p.cpu().Reset(kAppCode);
    p.cpu().set_reg(kRegSp, 0x19000);
  }

  static void ExpectSameCpu(Platform& fast, Platform& ref) {
    EXPECT_EQ(fast.cpu().cycles(), ref.cpu().cycles());
    EXPECT_EQ(fast.cpu().ip(), ref.cpu().ip());
    EXPECT_EQ(fast.cpu().halted(), ref.cpu().halted());
    EXPECT_EQ(fast.cpu().stats().instructions, ref.cpu().stats().instructions);
    EXPECT_EQ(fast.cpu().stats().interrupts, ref.cpu().stats().interrupts);
    EXPECT_EQ(fast.cpu().stats().sleep_cycles, ref.cpu().stats().sleep_cycles);
    EXPECT_EQ(Word(fast, kTimerBase + kTimerRegCount),
              Word(ref, kTimerBase + kTimerRegCount));
    for (int r = 0; r < kNumRegisters; ++r) {
      EXPECT_EQ(fast.cpu().reg(r), ref.cpu().reg(r)) << RegisterName(r);
    }
  }

  uint32_t sleep_ = 0;
};

TEST_F(WfiTest, TimerTickWakesSleepingTrustletAfterTheWfi) {
  // The trustlet counts once and sleeps. Each one-shot tick wakes it: the
  // wfi retires, the secure engine saves a frame that resumes after it, and
  // continue() runs exactly one more count before the next sleep.
  const std::string guest =
      TrustletSource(kTlDataEnd, kCountAddr, /*sleep=*/true) +
      OsSource(kContinueIsr, /*timer_period=*/300);
  Result<AsmOutput> assembled = Assemble(guest);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  const uint32_t tl_wfi = assembled->symbols.at("tl_wfi");

  const Outcome fast = RunScenario(platform_, guest, kTlDataEnd, nullptr);
  const Outcome ref = RunScenario(reference_, guest, kTlDataEnd, nullptr);
  ExpectSameState(fast, ref);  // Includes the 42-cycle entry on both.
  ExpectSameCpu(platform_, reference_);
  EXPECT_EQ(fast.trustlet_interrupts, 2u);
  EXPECT_EQ(platform_.cpu().stats().interrupts, 2u);
  EXPECT_EQ(platform_.cpu().stats().exceptions, 2u);  // No yields, no faults.
  EXPECT_GT(platform_.cpu().stats().sleep_cycles, 300u);
  EXPECT_EQ(fast.tt_slot, kTlDataEnd - kTrustletFrameBytes);
  EXPECT_EQ(LoadLe32(fast.frame.data() + 60), tl_wfi + 4);  // Resume IP.
  EXPECT_EQ(Word(platform_, kObsBase + 52), 1u);  // Count at the first tick.
  EXPECT_EQ(Word(platform_, kObsBase + 56), 2u);  // ... and at the second.
}

TEST_F(WfiTest, MaskedWfiWakesAtFirstExpiryWithoutTakingTheIrq) {
  const std::string body = R"(
    li   r1, 0xF0002000
    movi r2, 100
    stw  r2, [r1 + 4]      ; PERIOD
    la   r2, isr
    stw  r2, [r1 + 12]     ; HANDLER
    movi r2, 3             ; enable | irq enable, one shot; IF stays clear
    stw  r2, [r1 + 0]
sleep:
    wfi
    ldw  r3, [r1 + 16]     ; STATUS: expired and still pending
    wfi                    ; pending, though masked: retires at once
    halt
isr:
    movi r4, 1
    halt
)";
  LoadApp(platform_, body);
  LoadApp(reference_, body);
  ASSERT_TRUE(platform_.RunUntilIp(sleep_, 100));
  ASSERT_TRUE(reference_.RunUntilIp(sleep_, 100));
  ASSERT_EQ(platform_.cpu().cycles(), reference_.cpu().cycles());

  // Stepped: one cycle per Step(); the wfi retires in the step in which the
  // timer expires, not a cycle later.
  uint64_t sleep_steps = 0;
  while (reference_.cpu().ip() == sleep_) {
    ASSERT_EQ(reference_.timer().fire_count(), 0u);
    const uint64_t before = reference_.cpu().cycles();
    const StepEvent event = reference_.cpu().Step();
    if (event == StepEvent::kSleep) {
      ASSERT_EQ(reference_.cpu().cycles(), before + 1);
      ++sleep_steps;
      ASSERT_LT(sleep_steps, 200u);
    } else {
      ASSERT_EQ(event, StepEvent::kExecuted);
      EXPECT_EQ(reference_.cpu().cycles(), before + 2);  // Wake + retire.
    }
  }
  EXPECT_EQ(reference_.timer().fire_count(), 1u);
  EXPECT_EQ(reference_.cpu().ip(), sleep_ + 4);

  // Fast: one Run(1) sleeps to the same cycle and retires the wfi.
  EXPECT_EQ(platform_.cpu().Run(1), StepEvent::kExecuted);
  ExpectSameCpu(platform_, reference_);
  EXPECT_EQ(platform_.cpu().stats().sleep_cycles, sleep_steps + 1);

  platform_.Run(100);
  reference_.Run(100);
  ExpectSameCpu(platform_, reference_);
  EXPECT_TRUE(platform_.cpu().halted());
  EXPECT_FALSE(platform_.cpu().trap().valid);
  EXPECT_EQ(platform_.cpu().reg(3), 1u);  // Pending ...
  EXPECT_EQ(platform_.cpu().reg(4), 0u);  // ... but never taken.
  EXPECT_EQ(platform_.cpu().stats().interrupts, 0u);
  EXPECT_EQ(platform_.cpu().stats().sleep_cycles, sleep_steps + 1);
}

TEST_F(WfiTest, RunWithNothingArmedReturnsAsleep) {
  const std::string body = R"(
    sti
sleep:
    wfi
    halt
)";
  for (Platform* p : {&platform_, &reference_}) {
    LoadApp(*p, body);
    // Nothing can wake the core: each instruction-bound run sleeps one
    // cycle and returns, neither spinning nor tripping the watchdog.
    EXPECT_EQ(p->Run(1000), StepEvent::kSleep);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(p->Run(1), StepEvent::kSleep);
    }
    EXPECT_FALSE(p->cpu().halted());
    EXPECT_FALSE(p->cpu().trap().valid);
    EXPECT_EQ(p->cpu().ip(), sleep_);
    EXPECT_EQ(p->cpu().stats().instructions, 1u);  // The sti.
    EXPECT_EQ(p->cpu().stats().sleep_cycles, 5001u);
    EXPECT_EQ(p->cpu().cycles(), 5002u);
    // A cycle-bound run sleeps exactly to its target.
    EXPECT_EQ(p->RunUntilCycle(9000), StepEvent::kSleep);
    EXPECT_EQ(p->cpu().cycles(), 9000u);
  }
  ExpectSameCpu(platform_, reference_);
}

// The fast run loop pins a wfi's fetch like any tombstone head: the wfi
// issued again from the same predecessor, after a run cut short mid-sleep,
// is read through its host backing with no fetch check. Under a foreign
// protection unit, whose decisions no generation pins, and in Step() every
// issue takes the real fetch.
TEST_F(WfiTest, ReissuedWfiFetchIsPinnedUnderTheEaMpuOnly) {
  class AllowAll : public ProtectionUnit {
   public:
    AccessResult Check(const AccessContext&, uint32_t, uint32_t) override {
      ++checks;
      return AccessResult::kOk;
    }
    uint64_t checks = 0;
  };
  PlatformConfig config = MakeConfig();
  config.with_mpu = false;
  Platform foreign(config);
  AllowAll allow;
  foreign.bus().SetProtectionUnit(&allow);
  const std::string body = R"(
    sti
sleep:
    wfi
    halt
)";
  struct Case {
    Platform* platform;
    const uint64_t* checks;  // The protection unit's check count.
    uint64_t rerun_checks;   // Of 100 re-issues.
  };
  ProgramStandardMpu(platform_);  // The app runs in open memory.
  ProgramStandardMpu(reference_);
  const Case cases[] = {
      {&platform_, &platform_.mpu()->stats().checks, 0},
      {&reference_, &reference_.mpu()->stats().checks, 100},
      {&foreign, &allow.checks, 100},
  };
  for (const Case& c : cases) {
    LoadApp(*c.platform, body);
    ASSERT_EQ(c.platform->Run(1000), StepEvent::kSleep);
    const uint64_t warm = *c.checks;
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(c.platform->Run(1), StepEvent::kSleep);
    }
    EXPECT_EQ(*c.checks - warm, c.rerun_checks);
    const uint64_t stepped = *c.checks;
    ASSERT_EQ(c.platform->cpu().Step(), StepEvent::kSleep);
    EXPECT_EQ(*c.checks - stepped, 1u);
    EXPECT_EQ(c.platform->cpu().stats().sleep_cycles, 102u);
  }
  ExpectSameCpu(platform_, reference_);
  ExpectSameCpu(foreign, reference_);
}

TEST_F(WfiTest, RunUntilCycleStopsExactlyOnItsTargetMidSleep) {
  const std::string body = R"(
    li   r1, 0xF0002000
    movi r2, 5000
    stw  r2, [r1 + 4]      ; PERIOD
    la   r2, isr
    stw  r2, [r1 + 12]     ; HANDLER
    movi r2, 3             ; enable | irq enable, one shot
    stw  r2, [r1 + 0]
    sti
sleep:
    wfi
    halt
isr:
    movi r4, 1
    halt
)";
  LoadApp(platform_, body);
  LoadApp(reference_, body);
  for (const uint64_t target : {1000ull, 1001ull, 3333ull}) {
    EXPECT_EQ(platform_.RunUntilCycle(target), StepEvent::kSleep);
    EXPECT_EQ(reference_.RunUntilCycle(target), StepEvent::kSleep);
    EXPECT_EQ(platform_.cpu().cycles(), target);
    EXPECT_EQ(platform_.cpu().ip(), sleep_);
    ExpectSameCpu(platform_, reference_);
  }
  // Step() sleeps one cycle, on either platform.
  EXPECT_EQ(platform_.cpu().Step(), StepEvent::kSleep);
  EXPECT_EQ(reference_.cpu().Step(), StepEvent::kSleep);
  EXPECT_EQ(platform_.cpu().cycles(), 3334u);
  ExpectSameCpu(platform_, reference_);

  // Past the deadline: the wfi retires, the IRQ is taken after it.
  platform_.RunUntilCycle(10000);
  reference_.RunUntilCycle(10000);
  ExpectSameCpu(platform_, reference_);
  EXPECT_TRUE(platform_.cpu().halted());
  EXPECT_FALSE(platform_.cpu().trap().valid);
  EXPECT_EQ(platform_.cpu().reg(4), 1u);
  EXPECT_EQ(platform_.cpu().stats().interrupts, 1u);
  EXPECT_EQ(Word(platform_, 0x19000 - 8), sleep_ + 4);  // Resume IP.
}

}  // namespace
}  // namespace trustlite
