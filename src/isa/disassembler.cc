// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/isa/disassembler.h"

#include <cstdio>

#include "src/common/bytes.h"

namespace trustlite {

std::string Disassemble(const Instruction& insn, uint32_t addr) {
  const std::string name = OpcodeName(insn.opcode);
  if (FormatOf(insn.opcode) == InstructionFormat::kNone) {
    return name;
  }
  char buf[96];
  switch (insn.opcode) {
    case Opcode::kUnprotect:
      return name;
    case Opcode::kJr:
    case Opcode::kJalr:
      return name + " " + RegisterName(insn.rs1);
    case Opcode::kProtect:
      return name + " " + RegisterName(insn.rs1);
    case Opcode::kAttest:
      return name + " " + RegisterName(insn.rd) + ", " + RegisterName(insn.rs1);
    case Opcode::kSwi:
      std::snprintf(buf, sizeof(buf), "%s %d", name.c_str(), insn.imm);
      return buf;
    case Opcode::kMovi:
      std::snprintf(buf, sizeof(buf), "%s %s, %d", name.c_str(),
                    RegisterName(insn.rd).c_str(), insn.imm);
      return buf;
    case Opcode::kLui:
      std::snprintf(buf, sizeof(buf), "%s %s, 0x%x", name.c_str(),
                    RegisterName(insn.rd).c_str(),
                    static_cast<uint32_t>(insn.imm));
      return buf;
    case Opcode::kLdw:
    case Opcode::kLdb:
    case Opcode::kStw:
    case Opcode::kStb:
      std::snprintf(buf, sizeof(buf), "%s %s, [%s%+d]", name.c_str(),
                    RegisterName(insn.rd).c_str(),
                    RegisterName(insn.rs1).c_str(), insn.imm);
      return buf;
    case Opcode::kJmp:
    case Opcode::kJal:
      std::snprintf(buf, sizeof(buf), "%s 0x%08x", name.c_str(),
                    addr + static_cast<uint32_t>(insn.imm));
      return buf;
    default:
      break;
  }
  if (IsBranch(insn.opcode)) {
    std::snprintf(buf, sizeof(buf), "%s %s, %s, 0x%08x", name.c_str(),
                  RegisterName(insn.rd).c_str(),
                  RegisterName(insn.rs1).c_str(),
                  addr + static_cast<uint32_t>(insn.imm));
    return buf;
  }
  if (FormatOf(insn.opcode) == InstructionFormat::kR) {
    std::snprintf(buf, sizeof(buf), "%s %s, %s, %s", name.c_str(),
                  RegisterName(insn.rd).c_str(),
                  RegisterName(insn.rs1).c_str(),
                  RegisterName(insn.rs2).c_str());
    return buf;
  }
  // I-type ALU.
  std::snprintf(buf, sizeof(buf), "%s %s, %s, %d", name.c_str(),
                RegisterName(insn.rd).c_str(), RegisterName(insn.rs1).c_str(),
                insn.imm);
  return buf;
}

std::string DisassembleWord(uint32_t word, uint32_t addr) {
  std::optional<Instruction> insn = Decode(word);
  if (!insn.has_value()) {
    return ".word " + Hex32(word);
  }
  return Disassemble(*insn, addr);
}

}  // namespace trustlite
