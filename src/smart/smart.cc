// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/smart/smart.h"

#include <algorithm>
#include <sstream>

#include "src/common/bytes.h"
#include "src/crypto/hmac.h"
#include "src/isa/assembler.h"
#include "src/services/soft_sha.h"
#include "src/trustlet/guest_defs.h"

namespace trustlite {

AccessResult SmartUnit::Check(const AccessContext& ctx, uint32_t addr,
                              uint32_t width) {
  (void)width;
  // Key region: readable only while executing the ROM routine; never
  // writable by the guest.
  if (addr >= config_.key_base && addr < config_.key_end) {
    if (ctx.kind == AccessKind::kRead && InRom(ctx.curr_ip)) {
      return AccessResult::kOk;
    }
    violation_ = true;
    violation_addr_ = addr;
    return AccessResult::kReset;
  }
  // ROM routine: enterable only at its first instruction; executing from
  // within may continue anywhere inside.
  if (ctx.kind == AccessKind::kFetch && addr >= config_.rom_base &&
      addr < config_.rom_end) {
    if (addr == config_.rom_base || InRom(ctx.curr_ip)) {
      return AccessResult::kOk;
    }
    violation_ = true;
    violation_addr_ = addr;
    return AccessResult::kReset;
  }
  return AccessResult::kOk;
}

namespace {

// Pure-software variant: HMAC-SHA256 with the embedded TL32 SHA-256,
// staging (key ^ pad || message) in open RAM and wiping every key-derived
// byte before returning (the original SMART cost profile — no accelerator).
Result<std::vector<uint8_t>> BuildSoftwareSmartRoutine(
    const SmartConfig& config) {
  std::ostringstream src;
  src << GuestDefs();
  src << std::hex;
  src << ".equ MAILBOX, 0x" << config.mailbox << "\n";
  src << ".equ KEY_BASE, 0x" << config.key_base << "\n";
  src << ".equ STAGE, 0x" << config.soft_scratch << "\n";
  src << ".equ STAGE2, 0x" << (config.soft_scratch + 0x1000) << "\n";
  src << ".org 0x" << config.rom_base << "\n" << std::dec;
  src << R"(
smart_entry:
    li   r4, MAILBOX
    ; ---- stage buf1 = (key || 0-pad) ^ ipad || nonce || region ----
    li   r5, STAGE
    li   r6, KEY_BASE
    movi r7, 0
ssm_ipad:
    movi r8, 8
    bltu r7, r8, ssm_ipad_key
    movi r9, 0
    jmp  ssm_ipad_mix
ssm_ipad_key:
    shli r9, r7, 2
    add  r9, r9, r6
    ldw  r9, [r9]
ssm_ipad_mix:
    li   r10, 0x36363636
    xor  r9, r9, r10
    shli r10, r7, 2
    add  r10, r10, r5
    stw  r9, [r10]
    addi r7, r7, 1
    movi r8, 16
    bne  r7, r8, ssm_ipad
    ldw  r9, [r4 + 4]           ; nonce
    stw  r9, [r5 + 64]
    ldw  r7, [r4 + 8]           ; region base
    ldw  r8, [r4 + 12]          ; region end
    addi r10, r5, 68
ssm_copy:
    bgeu r7, r8, ssm_copy_done
    ldw  r9, [r7]
    stw  r9, [r10]
    addi r7, r7, 4
    addi r10, r10, 4
    jmp  ssm_copy
ssm_copy_done:
    ; inner = SHA-256(buf1, 68 + region bytes) -> STAGE2
    mov  r0, r5
    ldw  r1, [r4 + 8]
    ldw  r2, [r4 + 12]
    sub  r1, r2, r1
    addi r1, r1, 68
    li   r2, STAGE2
    call sha256_compute
    ; ---- stage buf2 = (key || 0-pad) ^ opad || inner ----
    li   r4, MAILBOX
    li   r5, STAGE
    li   r6, KEY_BASE
    movi r7, 0
ssm_opad:
    movi r8, 8
    bltu r7, r8, ssm_opad_key
    movi r9, 0
    jmp  ssm_opad_mix
ssm_opad_key:
    shli r9, r7, 2
    add  r9, r9, r6
    ldw  r9, [r9]
ssm_opad_mix:
    li   r10, 0x5c5c5c5c
    xor  r9, r9, r10
    shli r10, r7, 2
    add  r10, r10, r5
    stw  r9, [r10]
    addi r7, r7, 1
    movi r8, 16
    bne  r7, r8, ssm_opad
    li   r6, STAGE2
    movi r7, 0
ssm_cp_inner:
    shli r9, r7, 2
    add  r10, r9, r6
    ldw  r10, [r10]
    add  r11, r9, r5
    stw  r10, [r11 + 64]
    addi r7, r7, 1
    movi r8, 8
    bne  r7, r8, ssm_cp_inner
    ; tag = SHA-256(buf2, 96) -> mailbox + 20
    mov  r0, r5
    movi r1, 96
    addi r2, r4, 20
    call sha256_compute
    ; ---- wipe every key-derived staging byte before leaving ROM ----
    li   r5, STAGE
    movi r7, 24                 ; key^pad (16 words) + inner copy (8 words)
    movi r6, 0
    movi r8, 0
ssm_wipe1:
    stw  r6, [r5]
    addi r5, r5, 4
    addi r7, r7, -1
    bne  r7, r8, ssm_wipe1
    li   r5, STAGE2
    movi r7, 8
ssm_wipe2:
    stw  r6, [r5]
    addi r5, r5, 4
    addi r7, r7, -1
    bne  r7, r8, ssm_wipe2
    li   r5, SHA_S              ; message-schedule words include key blocks
    movi r7, 96
ssm_wipe3:
    stw  r6, [r5]
    addi r5, r5, 4
    addi r7, r7, -1
    bne  r7, r8, ssm_wipe3
    ; done
    li   r4, MAILBOX
    movi r6, 0
    stw  r6, [r4 + 0]
    ldw  r15, [r4 + 16]
    jr   r15
)";
  src << SoftSha256Source(config.soft_scratch + 0x1100);
  Result<AsmOutput> out = Assemble(src.str(), config.rom_base);
  if (!out.ok()) {
    return out.status();
  }
  uint32_t base = 0;
  std::vector<uint8_t> bytes = out->Flatten(&base);
  if (base != config.rom_base) {
    return Internal("SMART routine not based at rom_base");
  }
  if (config.rom_base + bytes.size() > config.rom_end) {
    return OutOfRange("software SMART routine exceeds its ROM window");
  }
  return bytes;
}

}  // namespace

Result<std::vector<uint8_t>> BuildSmartRoutine(const SmartConfig& config) {
  if (config.use_software_hash) {
    return BuildSoftwareSmartRoutine(config);
  }
  std::ostringstream src;
  src << GuestDefs();
  src << std::hex;
  src << ".equ MAILBOX, 0x" << config.mailbox << "\n";
  src << ".equ KEY_BASE, 0x" << config.key_base << "\n";
  src << ".org 0x" << config.rom_base << "\n" << std::dec;
  src << R"(
smart_entry:
    li   r4, MAILBOX
    li   r2, MMIO_SHA
    ; ---- inner hash: SHA-256((key || 0-pad) ^ ipad || nonce || region) ----
    movi r3, SHA_INIT
    stw  r3, [r2 + SHA_CTRL]
    li   r3, KEY_BASE
    movi r0, 0
smart_ipad:
    movi r1, 8
    bltu r0, r1, smart_ipad_key
    movi r1, 0
    jmp  smart_ipad_mix
smart_ipad_key:
    shli r1, r0, 2
    add  r1, r1, r3
    ldw  r1, [r1]
smart_ipad_mix:
    li   r15, 0x36363636
    xor  r1, r1, r15
    stw  r1, [r2 + SHA_DATA_IN]
    addi r0, r0, 1
    movi r15, 16
    bne  r0, r15, smart_ipad
    ; nonce
    ldw  r1, [r4 + 4]
    stw  r1, [r2 + SHA_DATA_IN]
    ; region words
    ldw  r5, [r4 + 8]
    ldw  r6, [r4 + 12]
smart_region:
    bgeu r5, r6, smart_region_done
    ldw  r7, [r5]
    stw  r7, [r2 + SHA_DATA_IN]
    addi r5, r5, 4
    jmp  smart_region
smart_region_done:
    movi r7, SHA_FINALIZE
    stw  r7, [r2 + SHA_CTRL]
    ; stash the inner digest in registers (it must not touch memory: only
    ; the final tag may leave the routine)
    ldw  r5,  [r2 + SHA_DIGEST_LE + 0]
    ldw  r6,  [r2 + SHA_DIGEST_LE + 4]
    ldw  r7,  [r2 + SHA_DIGEST_LE + 8]
    ldw  r8,  [r2 + SHA_DIGEST_LE + 12]
    ldw  r9,  [r2 + SHA_DIGEST_LE + 16]
    ldw  r10, [r2 + SHA_DIGEST_LE + 20]
    ldw  r11, [r2 + SHA_DIGEST_LE + 24]
    ldw  r12, [r2 + SHA_DIGEST_LE + 28]
    ; ---- outer hash: SHA-256((key || 0-pad) ^ opad || inner) ----
    movi r3, SHA_INIT
    stw  r3, [r2 + SHA_CTRL]
    li   r3, KEY_BASE
    movi r0, 0
smart_opad:
    movi r1, 8
    bltu r0, r1, smart_opad_key
    movi r1, 0
    jmp  smart_opad_mix
smart_opad_key:
    shli r1, r0, 2
    add  r1, r1, r3
    ldw  r1, [r1]
smart_opad_mix:
    li   r15, 0x5c5c5c5c
    xor  r1, r1, r15
    stw  r1, [r2 + SHA_DATA_IN]
    addi r0, r0, 1
    movi r15, 16
    bne  r0, r15, smart_opad
    stw  r5,  [r2 + SHA_DATA_IN]
    stw  r6,  [r2 + SHA_DATA_IN]
    stw  r7,  [r2 + SHA_DATA_IN]
    stw  r8,  [r2 + SHA_DATA_IN]
    stw  r9,  [r2 + SHA_DATA_IN]
    stw  r10, [r2 + SHA_DATA_IN]
    stw  r11, [r2 + SHA_DATA_IN]
    stw  r12, [r2 + SHA_DATA_IN]
    movi r1, SHA_FINALIZE
    stw  r1, [r2 + SHA_CTRL]
    ; publish the tag
    movi r0, 0
smart_tag:
    shli r1, r0, 2
    add  r3, r1, r2
    ldw  r3, [r3 + SHA_DIGEST_LE]
    add  r15, r1, r4
    stw  r3, [r15 + 20]
    addi r0, r0, 1
    movi r1, 8
    bne  r0, r1, smart_tag
    ; scrub registers that held key-derived material before leaving
    movi r5, 0
    movi r6, 0
    movi r7, 0
    movi r8, 0
    movi r9, 0
    movi r10, 0
    movi r11, 0
    movi r12, 0
    movi r3, 0
    ; mark done and return to the untrusted continuation
    movi r0, 0
    stw  r0, [r4 + 0]
    ldw  r15, [r4 + 16]
    jr   r15
)";
  Result<AsmOutput> out = Assemble(src.str(), config.rom_base);
  if (!out.ok()) {
    return out.status();
  }
  uint32_t base = 0;
  std::vector<uint8_t> bytes = out->Flatten(&base);
  if (base != config.rom_base) {
    return Internal("SMART routine not based at rom_base");
  }
  if (config.rom_base + bytes.size() > config.rom_end) {
    return OutOfRange("SMART routine exceeds its ROM window");
  }
  return bytes;
}

SmartSystem::SmartSystem(const SmartConfig& config,
                         const std::array<uint8_t, 32>& key)
    : config_(config),
      key_(key),
      platform_([] {
        PlatformConfig pc;
        pc.with_mpu = false;  // SMART replaces the MPU with its bus rule.
        return pc;
      }()),
      unit_(config) {
  platform_.bus().SetProtectionUnit(&unit_);
  Result<std::vector<uint8_t>> routine = BuildSmartRoutine(config_);
  status_ = routine.ok() ? platform_.prom().LoadBytes(
                               config_.rom_base - kPromBase, *routine)
                         : routine.status();
  if (status_.ok()) {
    status_ = platform_.prom().LoadBytes(config_.key_base - kPromBase, key_);
  }
}

void SmartSystem::WriteRequest(uint32_t nonce, uint32_t region_base,
                               uint32_t region_end, uint32_t continuation) {
  Bus& bus = platform_.bus();
  bus.HostWriteWord(config_.mailbox + 4, nonce);
  bus.HostWriteWord(config_.mailbox + 8, region_base);
  bus.HostWriteWord(config_.mailbox + 12, region_end);
  bus.HostWriteWord(config_.mailbox + 16, continuation);
  bus.HostWriteWord(config_.mailbox + 0, 1);
}

bool SmartSystem::InvokeAttestation(uint32_t nonce, uint32_t region_base,
                                    uint32_t region_end, Sha256Digest* tag,
                                    uint64_t* cycles) {
  if (!status_.ok()) {
    return false;
  }
  // Untrusted stub in open RAM: jump to the ROM routine, halt on return.
  const uint32_t stub = config_.mailbox + 0x100;
  std::ostringstream src;
  src << ".org 0x" << std::hex << stub << "\n";
  src << "    li r3, 0x" << config_.rom_base << "\n";
  src << "    jr r3\n";
  src << "done:\n    halt\n";
  Result<AsmOutput> out = Assemble(src.str(), stub);
  if (!out.ok()) {
    return false;
  }
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  if (!platform_.bus().HostWriteBytes(base, image)) {
    return false;
  }
  WriteRequest(nonce, region_base, region_end, out->SymbolOrDie("done"));

  platform_.cpu().Reset(stub);
  platform_.cpu().set_reg(kRegSp, config_.mailbox + 0x1000);
  const uint64_t cycles_before = platform_.cpu().cycles();
  platform_.Run(1'000'000);
  if (cycles != nullptr) {
    *cycles = platform_.cpu().cycles() - cycles_before;
  }
  if (unit_.violation() || platform_.cpu().trap().valid) {
    return false;
  }
  for (int i = 0; i < 8; ++i) {
    uint32_t word = 0;
    if (!platform_.bus().HostReadWord(config_.mailbox + 20 + 4 * i, &word)) {
      return false;
    }
    StoreLe32(tag->data() + i * 4, word);
  }
  return true;
}

Sha256Digest SmartSystem::ExpectedTag(
    uint32_t nonce, const std::vector<uint8_t>& region_bytes) const {
  std::vector<uint8_t> message(4 + region_bytes.size());
  StoreLe32(message.data(), nonce);
  std::copy(region_bytes.begin(), region_bytes.end(), message.begin() + 4);
  return HmacSha256(key_.data(), key_.size(), message.data(), message.size());
}

uint64_t SmartSystem::ResetAndSanitize() {
  // SMART's reset requirement: all volatile memory is purged by hardware.
  platform_.sram().Fill(0);
  platform_.dram().Fill(0);
  platform_.HardReset();
  unit_.Reset();
  return MemorySanitizeCycles(platform_.sram().size() +
                              platform_.dram().size());
}

}  // namespace trustlite
