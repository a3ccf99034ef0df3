// Copyright 2026 The TrustLite Reproduction Authors.
//
// TL32 instruction set definition.
//
// TrustLite is deliberately ISA-independent: all of its security mechanisms
// (EA-MPU, secure exception engine, Secure Loader, Trustlet Table) live in
// the memory system and exception engine, not in the instruction set. TL32
// is therefore a minimal 32-bit load/store ISA, standing in for the Intel
// Siskiyou Peak core used by the paper's FPGA prototype.
//
// Encoding: one 32-bit little-endian word per instruction.
//
//   [31:26] opcode
//   R-type:  [25:22] rd   [21:18] rs1  [17:14] rs2
//   I-type:  [25:22] rd   [21:18] rs1  [17:0]  imm18 (signed)
//   U-type:  [25:22] rd   [21:0]  imm22 (unsigned; LUI shifts it left 10)
//   B-type:  [25:22] rs1  [21:18] rs2  [17:0]  imm18 (signed byte offset / 4)
//   J-type:  [25:0]  imm26 (signed byte offset / 4)
//
// Registers: r0..r15 are general purpose. By software convention r13 is the
// stack pointer (`sp`) and r14 the link register (`lr`); the hardware only
// distinguishes them in the exception engine's state-save sequence.
//
// The three Sancus opcodes (protect/unprotect/attest) model the baseline
// architecture's ISA extension. On a platform without the Sancus protection
// unit they raise an illegal-instruction exception.

#ifndef TRUSTLITE_SRC_ISA_ISA_H_
#define TRUSTLITE_SRC_ISA_ISA_H_

#include <cstdint>
#include <optional>
#include <string>

namespace trustlite {

inline constexpr int kNumRegisters = 16;
inline constexpr int kRegSp = 13;  // Stack pointer (convention).
inline constexpr int kRegLr = 14;  // Link register (convention).
inline constexpr uint32_t kInstructionBytes = 4;

enum class Opcode : uint8_t {
  kNop = 0,
  kHalt = 1,
  // R-type ALU.
  kAdd = 2,
  kSub = 3,
  kAnd = 4,
  kOr = 5,
  kXor = 6,
  kShl = 7,
  kShr = 8,
  kSra = 9,
  kMul = 10,
  kSltu = 11,
  kSlt = 12,
  // I-type ALU.
  kAddi = 13,
  kAndi = 14,
  kOri = 15,
  kXori = 16,
  kShli = 17,
  kShri = 18,
  kSrai = 19,
  kMovi = 20,
  kLui = 21,  // U-type: rd = imm22 << 10.
  // Memory.
  kLdw = 22,  // rd = mem32[rs1 + imm18]
  kLdb = 23,  // rd = zext(mem8[rs1 + imm18])
  kStw = 24,  // mem32[rs1 + imm18] = rd
  kStb = 25,  // mem8[rs1 + imm18] = rd & 0xFF
  // Compare-and-branch (B-type, signed/unsigned compares).
  kBeq = 26,
  kBne = 27,
  kBlt = 28,
  kBge = 29,
  kBltu = 30,
  kBgeu = 31,
  // Control transfer.
  kJmp = 32,   // J-type, ip += offset
  kJal = 33,   // J-type, lr = ip + 4; ip += offset
  kJr = 34,    // R-type, ip = rs1
  kJalr = 35,  // R-type, lr = ip + 4; ip = rs1
  // System.
  kSwi = 36,   // I-type, software interrupt, imm18 = vector 0..15
  kIret = 37,  // pop ip, then flags, from the current stack
  kCli = 38,   // clear interrupt-enable flag
  kSti = 39,   // set interrupt-enable flag
  kWfi = 40,   // wait for interrupt: sleep until an IRQ source is pending
  // Sancus baseline ISA extension (illegal without the Sancus unit).
  kProtect = 48,    // R-type: rs1 = ptr to section descriptor
  kUnprotect = 49,  // R-type: no operands
  kAttest = 50,     // R-type: rd = result, rs1 = ptr to descriptor
};

// Decoded instruction. `imm` holds the sign-extended immediate; for branch
// and jump opcodes it is the byte offset (already multiplied back by 4).
struct Instruction {
  Opcode opcode = Opcode::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;

  bool operator==(const Instruction&) const = default;
};

enum class InstructionFormat { kR, kI, kU, kB, kJ, kNone };

// Format of an opcode's encoding; nullopt for undefined opcode values.
std::optional<InstructionFormat> FormatOf(uint8_t opcode_bits);
InstructionFormat FormatOf(Opcode op);

// Mnemonic of an opcode ("addi", "beq", ...).
const char* OpcodeName(Opcode op);

// Parses a mnemonic; nullopt if unknown.
std::optional<Opcode> OpcodeFromName(const std::string& name);

// Encodes an instruction into its 32-bit word. Immediates out of field range
// are the caller's bug; Encode asserts in debug builds and truncates in
// release builds (the assembler range-checks before calling).
uint32_t Encode(const Instruction& insn);

// Decodes a 32-bit word. Returns nullopt for undefined opcodes.
std::optional<Instruction> Decode(uint32_t word);

// True if the opcode reads/writes memory (used by the cycle model).
bool IsMemoryOp(Opcode op);
// True for jmp/jal/jr/jalr (unconditional control transfer).
bool IsJump(Opcode op);
// True for the conditional branch group.
bool IsBranch(Opcode op);

// Register name for display: "sp"/"lr" for r13/r14, else "rN".
std::string RegisterName(int reg);

// Parses a register operand name ("r7", "sp", "lr"). nullopt if invalid.
std::optional<int> RegisterFromName(const std::string& name);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_ISA_ISA_H_
