// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/services/attestation.h"

#include <algorithm>
#include <sstream>

#include "src/common/bytes.h"

namespace trustlite {

Result<TrustletMeta> BuildAttestationTrustlet(const AttestationSpec& spec) {
  std::ostringstream body;
  body << std::hex;
  body << ".equ MAILBOX, 0x" << spec.mailbox_addr << "\n";
  body << ".equ TTBASE, 0x" << spec.table_addr << "\n";
  body << std::dec;
  body << R"(
tl_main:
    li   r4, MAILBOX
    ldw  r5, [r4 + 0]
    movi r6, 1
    bne  r5, r6, attn_idle      ; no pending request: yield

    ; Look the target up in the Trustlet Table.
    ldw  r7, [r4 + 8]           ; target id
    li   r8, TTBASE
    ldw  r9, [r8 + 4]           ; row count
    movi r10, 0
attn_find:
    beq  r10, r9, attn_not_found
    shli r11, r10, 6
    add  r11, r11, r8
    addi r11, r11, TT_HEADER_SIZE
    ldw  r12, [r11 + TT_ROW_ID]
    beq  r12, r7, attn_found
    addi r10, r10, 1
    jmp  attn_find

attn_not_found:
    movi r5, 2
    stw  r5, [r4 + 12]
    movi r5, 0
    stw  r5, [r4 + 0]
    jmp  attn_idle

attn_found:
    ; report = SHA-256(key || challenge || live target code). The session
    ; is atomic: the SHA engine is ours exclusively, and interrupts are
    ; masked so the absorb stream cannot be interleaved.
    cli
    li   r2, MMIO_SHA
    movi r3, SHA_INIT
    stw  r3, [r2 + SHA_CTRL]
    ; absorb the 32-byte key from our private code region
    la   r3, attn_key
    movi r5, 0
attn_key_loop:
    shli r6, r5, 2
    add  r6, r6, r3
    ldw  r6, [r6]
    stw  r6, [r2 + SHA_DATA_IN]
    addi r5, r5, 1
    movi r6, 8
    bne  r5, r6, attn_key_loop
    ; absorb the verifier's challenge
    ldw  r6, [r4 + 4]
    stw  r6, [r2 + SHA_DATA_IN]
    ; absorb the target's code region, word by word
    ldw  r5, [r11 + TT_ROW_CODE_BASE]
    ldw  r6, [r11 + TT_ROW_CODE_END]
attn_code_loop:
    bgeu r5, r6, attn_code_done
    ldw  r7, [r5]
    stw  r7, [r2 + SHA_DATA_IN]
    addi r5, r5, 4
    jmp  attn_code_loop
attn_code_done:
    movi r7, SHA_FINALIZE
    stw  r7, [r2 + SHA_CTRL]
    ; publish the 8 digest words
    movi r5, 0
attn_dig_loop:
    shli r6, r5, 2
    add  r7, r6, r2
    ldw  r7, [r7 + SHA_DIGEST]
    add  r8, r6, r4
    stw  r7, [r8 + 16]
    addi r5, r5, 1
    movi r6, 8
    bne  r5, r6, attn_dig_loop
    movi r5, 1
    stw  r5, [r4 + 12]          ; status = ok
    movi r5, 0
    stw  r5, [r4 + 0]           ; request consumed
    sti

attn_idle:
    swi  0
    jmp  tl_main

.align 4
attn_key:
)";
  for (int i = 0; i < 8; ++i) {
    body << "    .word 0x" << std::hex << LoadLe32(spec.key.data() + i * 4)
         << std::dec << "\n";
  }

  TrustletBuildSpec build;
  build.name = spec.name;
  build.code_addr = spec.code_addr;
  build.data_addr = spec.data_addr;
  build.data_size = spec.data_size;
  build.stack_size = 0x200;
  build.measure = true;
  build.callable_any = true;
  build.code_private = true;  // The key lives in the code region.
  build.body = body.str();
  if (spec.grant_sha) {
    build.grants.push_back(
        {kShaBase, kShaBase + kMmioBlockSize, kGrantRead | kGrantWrite});
  }
  return BuildTrustlet(build);
}

Sha256Digest ExpectedAttestationReport(
    const std::array<uint8_t, 32>& key, uint32_t challenge,
    const std::vector<uint8_t>& target_code) {
  Sha256 hasher;
  hasher.Update(key.data(), key.size());
  uint8_t challenge_le[4];
  StoreLe32(challenge_le, challenge);
  hasher.Update(challenge_le, 4);
  // The guest absorbs whole words; code regions are word-aligned, but pad
  // defensively the same way the hardware stream would see it.
  std::vector<uint8_t> code = target_code;
  while ((code.size() & 3) != 0) {
    code.push_back(0);
  }
  hasher.Update(code);
  return hasher.Finish();
}

void WriteAttestationRequest(Bus* bus, uint32_t mailbox, uint32_t challenge,
                             uint32_t target_id) {
  bus->HostWriteWord(mailbox + kAttestMailboxChallenge, challenge);
  bus->HostWriteWord(mailbox + kAttestMailboxTarget, target_id);
  bus->HostWriteWord(mailbox + kAttestMailboxStatus, 0);
  bus->HostWriteWord(mailbox + kAttestMailboxCommand, 1);
}

bool ReadAttestationReport(Bus* bus, uint32_t mailbox, uint32_t* status,
                           Sha256Digest* report) {
  uint32_t command = 1;
  if (!bus->HostReadWord(mailbox + kAttestMailboxCommand, &command) ||
      command != 0) {
    return false;  // Not yet serviced.
  }
  if (!bus->HostReadWord(mailbox + kAttestMailboxStatus, status)) {
    return false;
  }
  // The guest stores the big-endian digest words with little-endian stores;
  // unpack accordingly.
  for (int i = 0; i < 8; ++i) {
    uint32_t word = 0;
    if (!bus->HostReadWord(mailbox + kAttestMailboxReport + 4 * i, &word)) {
      return false;
    }
    (*report)[i * 4] = static_cast<uint8_t>(word >> 24);
    (*report)[i * 4 + 1] = static_cast<uint8_t>(word >> 16);
    (*report)[i * 4 + 2] = static_cast<uint8_t>(word >> 8);
    (*report)[i * 4 + 3] = static_cast<uint8_t>(word);
  }
  return true;
}

}  // namespace trustlite

namespace trustlite {

Result<TrustletMeta> BuildUartAttestationTrustlet(const AttestationSpec& spec) {
  std::ostringstream body;
  body << std::hex;
  body << ".equ TTBASE, 0x" << spec.table_addr << "\n";
  body << std::dec;
  body << R"(
tl_main:
rattn_poll:
    li   r4, MMIO_UART
    ldw  r5, [r4 + UART_RXCOUNT]
    movi r6, 9
    bgeu r5, r6, rattn_frame
    wfi                          ; nothing pending: sleep to the next tick
    jmp  rattn_poll

rattn_frame:
    ldw  r5, [r4 + UART_RXDATA]  ; command byte
    movi r6, 'A'
    bne  r5, r6, rattn_poll      ; resynchronize on garbage
    ; target id, little-endian
    ldw  r7, [r4 + UART_RXDATA]
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 8
    or   r7, r7, r5
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 16
    or   r7, r7, r5
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 24
    or   r7, r7, r5
    ; challenge, little-endian
    ldw  r8, [r4 + UART_RXDATA]
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 8
    or   r8, r8, r5
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 16
    or   r8, r8, r5
    ldw  r5, [r4 + UART_RXDATA]
    shli r5, r5, 24
    or   r8, r8, r5

    ; Trustlet Table lookup of r7.
    li   r9, TTBASE
    ldw  r10, [r9 + 4]
    movi r11, 0
rattn_find:
    beq  r11, r10, rattn_unknown
    shli r12, r11, 6
    add  r12, r12, r9
    addi r12, r12, TT_HEADER_SIZE
    ldw  r5, [r12 + TT_ROW_ID]
    beq  r5, r7, rattn_found
    addi r11, r11, 1
    jmp  rattn_find

rattn_unknown:
    movi r5, 'R'
    stw  r5, [r4 + UART_TXDATA]
    movi r5, 2                   ; status: unknown target
    stw  r5, [r4 + UART_TXDATA]
    jmp  rattn_poll

rattn_found:
    ; report = SHA-256(key || challenge || live target code)
    cli
    li   r2, MMIO_SHA
    movi r3, SHA_INIT
    stw  r3, [r2 + SHA_CTRL]
    la   r3, attn_key
    movi r5, 0
rattn_key_loop:
    shli r6, r5, 2
    add  r6, r6, r3
    ldw  r6, [r6]
    stw  r6, [r2 + SHA_DATA_IN]
    addi r5, r5, 1
    movi r6, 8
    bne  r5, r6, rattn_key_loop
    stw  r8, [r2 + SHA_DATA_IN]  ; challenge
    ldw  r5, [r12 + TT_ROW_CODE_BASE]
    ldw  r6, [r12 + TT_ROW_CODE_END]
rattn_code_loop:
    bgeu r5, r6, rattn_code_done
    ldw  r7, [r5]
    stw  r7, [r2 + SHA_DATA_IN]
    addi r5, r5, 4
    jmp  rattn_code_loop
rattn_code_done:
    movi r7, SHA_FINALIZE
    stw  r7, [r2 + SHA_CTRL]
    ; response frame
    movi r5, 'R'
    stw  r5, [r4 + UART_TXDATA]
    movi r5, 1                   ; status: ok
    stw  r5, [r4 + UART_TXDATA]
    movi r5, 0
rattn_tx_loop:
    shli r6, r5, 2
    add  r7, r6, r2
    ldw  r7, [r7 + SHA_DIGEST_LE]  ; raw digest bytes, 4 at a time
    stw  r7, [r4 + UART_TXDATA]
    shri r7, r7, 8
    stw  r7, [r4 + UART_TXDATA]
    shri r7, r7, 8
    stw  r7, [r4 + UART_TXDATA]
    shri r7, r7, 8
    stw  r7, [r4 + UART_TXDATA]
    addi r5, r5, 1
    movi r6, 8
    bne  r5, r6, rattn_tx_loop
    sti
    jmp  rattn_poll

.align 4
attn_key:
)";
  for (int i = 0; i < 8; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "    .word 0x%x\n",
                  LoadLe32(spec.key.data() + i * 4));
    body << buf;
  }

  TrustletBuildSpec build;
  build.name = spec.name;
  build.code_addr = spec.code_addr;
  build.data_addr = spec.data_addr;
  build.data_size = spec.data_size;
  build.stack_size = 0x200;
  build.measure = true;
  build.callable_any = true;
  build.code_private = true;
  build.body = body.str();
  if (spec.grant_sha) {
    build.grants.push_back(
        {kShaBase, kShaBase + kMmioBlockSize, kGrantRead | kGrantWrite});
  }
  build.grants.push_back(
      {kUartBase, kUartBase + kMmioBlockSize, kGrantRead | kGrantWrite});
  return BuildTrustlet(build);
}

std::string EncodeAttestationRequest(uint32_t target_id, uint32_t challenge) {
  std::vector<uint8_t> frame = {'A'};
  AppendLe32(frame, target_id);
  AppendLe32(frame, challenge);
  return std::string(frame.begin(), frame.end());
}

FrameScan ScanAttestationResponse(const std::string& uart_output,
                                  size_t offset, size_t* frame_start,
                                  size_t* next_offset, uint32_t* status,
                                  Sha256Digest* report) {
  const size_t start = uart_output.find('R', offset);
  if (start == std::string::npos) {
    return FrameScan::kNoFrame;
  }
  *frame_start = start;
  if (start + 2 > uart_output.size()) {
    return FrameScan::kNeedMore;  // Status byte still streaming.
  }
  *status = static_cast<uint8_t>(uart_output[start + 1]);
  if (*status != kAttestStatusOk) {
    *next_offset = start + 2;
    return FrameScan::kFrame;
  }
  if (start + 2 + 32 > uart_output.size()) {
    return FrameScan::kNeedMore;  // Report still streaming.
  }
  std::copy(uart_output.begin() + static_cast<long>(start) + 2,
            uart_output.begin() + static_cast<long>(start) + 2 + 32,
            report->begin());
  *next_offset = start + 2 + 32;
  return FrameScan::kFrame;
}

}  // namespace trustlite
