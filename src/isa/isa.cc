// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/isa/isa.h"

#include <cassert>
#include <cctype>

#include "src/common/bytes.h"

namespace trustlite {
namespace {

struct OpcodeInfo {
  Opcode op;
  const char* name;
  InstructionFormat format;
};

constexpr OpcodeInfo kOpcodeTable[] = {
    {Opcode::kNop, "nop", InstructionFormat::kNone},
    {Opcode::kHalt, "halt", InstructionFormat::kNone},
    {Opcode::kAdd, "add", InstructionFormat::kR},
    {Opcode::kSub, "sub", InstructionFormat::kR},
    {Opcode::kAnd, "and", InstructionFormat::kR},
    {Opcode::kOr, "or", InstructionFormat::kR},
    {Opcode::kXor, "xor", InstructionFormat::kR},
    {Opcode::kShl, "shl", InstructionFormat::kR},
    {Opcode::kShr, "shr", InstructionFormat::kR},
    {Opcode::kSra, "sra", InstructionFormat::kR},
    {Opcode::kMul, "mul", InstructionFormat::kR},
    {Opcode::kSltu, "sltu", InstructionFormat::kR},
    {Opcode::kSlt, "slt", InstructionFormat::kR},
    {Opcode::kAddi, "addi", InstructionFormat::kI},
    {Opcode::kAndi, "andi", InstructionFormat::kI},
    {Opcode::kOri, "ori", InstructionFormat::kI},
    {Opcode::kXori, "xori", InstructionFormat::kI},
    {Opcode::kShli, "shli", InstructionFormat::kI},
    {Opcode::kShri, "shri", InstructionFormat::kI},
    {Opcode::kSrai, "srai", InstructionFormat::kI},
    {Opcode::kMovi, "movi", InstructionFormat::kI},
    {Opcode::kLui, "lui", InstructionFormat::kU},
    {Opcode::kLdw, "ldw", InstructionFormat::kI},
    {Opcode::kLdb, "ldb", InstructionFormat::kI},
    {Opcode::kStw, "stw", InstructionFormat::kI},
    {Opcode::kStb, "stb", InstructionFormat::kI},
    {Opcode::kBeq, "beq", InstructionFormat::kB},
    {Opcode::kBne, "bne", InstructionFormat::kB},
    {Opcode::kBlt, "blt", InstructionFormat::kB},
    {Opcode::kBge, "bge", InstructionFormat::kB},
    {Opcode::kBltu, "bltu", InstructionFormat::kB},
    {Opcode::kBgeu, "bgeu", InstructionFormat::kB},
    {Opcode::kJmp, "jmp", InstructionFormat::kJ},
    {Opcode::kJal, "jal", InstructionFormat::kJ},
    {Opcode::kJr, "jr", InstructionFormat::kR},
    {Opcode::kJalr, "jalr", InstructionFormat::kR},
    {Opcode::kSwi, "swi", InstructionFormat::kI},
    {Opcode::kIret, "iret", InstructionFormat::kNone},
    {Opcode::kCli, "cli", InstructionFormat::kNone},
    {Opcode::kSti, "sti", InstructionFormat::kNone},
    {Opcode::kWfi, "wfi", InstructionFormat::kNone},
    {Opcode::kProtect, "protect", InstructionFormat::kR},
    {Opcode::kUnprotect, "unprotect", InstructionFormat::kR},
    {Opcode::kAttest, "attest", InstructionFormat::kR},
};

const OpcodeInfo* LookupByBits(uint8_t bits) {
  for (const auto& info : kOpcodeTable) {
    if (static_cast<uint8_t>(info.op) == bits) {
      return &info;
    }
  }
  return nullptr;
}

}  // namespace

std::optional<InstructionFormat> FormatOf(uint8_t opcode_bits) {
  const OpcodeInfo* info = LookupByBits(opcode_bits);
  if (info == nullptr) {
    return std::nullopt;
  }
  return info->format;
}

InstructionFormat FormatOf(Opcode op) {
  const OpcodeInfo* info = LookupByBits(static_cast<uint8_t>(op));
  assert(info != nullptr);
  return info->format;
}

const char* OpcodeName(Opcode op) {
  const OpcodeInfo* info = LookupByBits(static_cast<uint8_t>(op));
  return info != nullptr ? info->name : "???";
}

std::optional<Opcode> OpcodeFromName(const std::string& name) {
  for (const auto& info : kOpcodeTable) {
    if (name == info.name) {
      return info.op;
    }
  }
  return std::nullopt;
}

uint32_t Encode(const Instruction& insn) {
  const uint32_t op = static_cast<uint32_t>(insn.opcode) & 0x3F;
  uint32_t word = op << 26;
  switch (FormatOf(insn.opcode)) {
    case InstructionFormat::kR:
      word |= (static_cast<uint32_t>(insn.rd) & 0xF) << 22;
      word |= (static_cast<uint32_t>(insn.rs1) & 0xF) << 18;
      word |= (static_cast<uint32_t>(insn.rs2) & 0xF) << 14;
      break;
    case InstructionFormat::kI:
      assert(FitsSigned(insn.imm, 18));
      word |= (static_cast<uint32_t>(insn.rd) & 0xF) << 22;
      word |= (static_cast<uint32_t>(insn.rs1) & 0xF) << 18;
      word |= static_cast<uint32_t>(insn.imm) & 0x3FFFF;
      break;
    case InstructionFormat::kU:
      assert(FitsUnsigned(static_cast<uint32_t>(insn.imm), 22));
      word |= (static_cast<uint32_t>(insn.rd) & 0xF) << 22;
      word |= static_cast<uint32_t>(insn.imm) & 0x3FFFFF;
      break;
    case InstructionFormat::kB: {
      assert((insn.imm & 3) == 0 && FitsSigned(insn.imm >> 2, 18));
      word |= (static_cast<uint32_t>(insn.rd) & 0xF) << 22;
      word |= (static_cast<uint32_t>(insn.rs1) & 0xF) << 18;
      word |= (static_cast<uint32_t>(insn.imm >> 2)) & 0x3FFFF;
      break;
    }
    case InstructionFormat::kJ: {
      assert((insn.imm & 3) == 0 && FitsSigned(insn.imm >> 2, 26));
      word |= (static_cast<uint32_t>(insn.imm >> 2)) & 0x3FFFFFF;
      break;
    }
    case InstructionFormat::kNone:
      break;
  }
  return word;
}

std::optional<Instruction> Decode(uint32_t word) {
  const uint8_t op_bits = static_cast<uint8_t>(word >> 26);
  const OpcodeInfo* info = LookupByBits(op_bits);
  if (info == nullptr) {
    return std::nullopt;
  }
  Instruction insn;
  insn.opcode = info->op;
  switch (info->format) {
    case InstructionFormat::kR:
      insn.rd = static_cast<uint8_t>((word >> 22) & 0xF);
      insn.rs1 = static_cast<uint8_t>((word >> 18) & 0xF);
      insn.rs2 = static_cast<uint8_t>((word >> 14) & 0xF);
      break;
    case InstructionFormat::kI:
      insn.rd = static_cast<uint8_t>((word >> 22) & 0xF);
      insn.rs1 = static_cast<uint8_t>((word >> 18) & 0xF);
      insn.imm = SignExtend(word & 0x3FFFF, 18);
      break;
    case InstructionFormat::kU:
      insn.rd = static_cast<uint8_t>((word >> 22) & 0xF);
      insn.imm = static_cast<int32_t>(word & 0x3FFFFF);
      break;
    case InstructionFormat::kB:
      insn.rd = static_cast<uint8_t>((word >> 22) & 0xF);
      insn.rs1 = static_cast<uint8_t>((word >> 18) & 0xF);
      insn.imm = SignExtend(word & 0x3FFFF, 18) * 4;
      break;
    case InstructionFormat::kJ:
      insn.imm = SignExtend(word & 0x3FFFFFF, 26) * 4;
      break;
    case InstructionFormat::kNone:
      break;
  }
  return insn;
}

bool IsMemoryOp(Opcode op) {
  switch (op) {
    case Opcode::kLdw:
    case Opcode::kLdb:
    case Opcode::kStw:
    case Opcode::kStb:
      return true;
    default:
      return false;
  }
}

bool IsJump(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJal:
    case Opcode::kJr:
    case Opcode::kJalr:
      return true;
    default:
      return false;
  }
}

bool IsBranch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}

std::string RegisterName(int reg) {
  if (reg == kRegSp) {
    return "sp";
  }
  if (reg == kRegLr) {
    return "lr";
  }
  return "r" + std::to_string(reg);
}

std::optional<int> RegisterFromName(const std::string& name) {
  if (name == "sp") {
    return kRegSp;
  }
  if (name == "lr") {
    return kRegLr;
  }
  if (name.size() >= 2 && name[0] == 'r') {
    int value = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        return std::nullopt;
      }
      value = value * 10 + (name[i] - '0');
      if (value >= kNumRegisters) {
        return std::nullopt;
      }
    }
    return value;
  }
  return std::nullopt;
}

}  // namespace trustlite
