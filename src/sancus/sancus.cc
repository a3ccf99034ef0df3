// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/sancus/sancus.h"

#include <algorithm>
#include <cassert>

#include "src/common/bytes.h"

namespace trustlite {

SancusUnit::SancusUnit(int max_modules, std::vector<uint8_t> master_key)
    : modules_(static_cast<size_t>(max_modules)),
      master_key_(std::move(master_key)) {
  assert(max_modules > 0);
}

void SancusUnit::Install(Cpu* cpu, Bus* bus) {
  bus_ = bus;
  bus->SetProtectionUnit(this);
  cpu->SetSancusHook(
      [this](const Instruction& insn, Cpu* c) { return HandleInstruction(insn, c); });
  cpu->SetInterruptGuard(
      [this](uint32_t ip) { return !ModuleContaining(ip).has_value(); });
}

void SancusUnit::Reset() {
  // A platform reset destroys all modules and their cached keys; Sancus
  // additionally requires memory sanitization (done by the platform model).
  for (SancusModule& m : modules_) {
    m = SancusModule{};
  }
  violation_ = false;
}

int SancusUnit::active_modules() const {
  int count = 0;
  for (const SancusModule& m : modules_) {
    if (m.active) {
      ++count;
    }
  }
  return count;
}

const SancusModule* SancusUnit::module_by_id(uint32_t id) const {
  for (const SancusModule& m : modules_) {
    if (m.active && m.id == id) {
      return &m;
    }
  }
  return nullptr;
}

std::optional<int> SancusUnit::ModuleContaining(uint32_t ip) const {
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i].active && ip >= modules_[i].text_start &&
        ip < modules_[i].text_end) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

bool SancusUnit::Overlaps(uint32_t lo, uint32_t hi) const {
  for (const SancusModule& m : modules_) {
    if (!m.active) {
      continue;
    }
    if (lo < m.text_end && m.text_start < hi) {
      return true;
    }
    if (lo < m.data_end && m.data_start < hi) {
      return true;
    }
  }
  return false;
}

AccessResult SancusUnit::Check(const AccessContext& ctx, uint32_t addr,
                               uint32_t width) {
  (void)width;
  const std::optional<int> subject = ModuleContaining(ctx.curr_ip);
  for (size_t i = 0; i < modules_.size(); ++i) {
    const SancusModule& m = modules_[i];
    if (!m.active) {
      continue;
    }
    // Text section: public reads, no writes, entry only at text_start.
    if (addr >= m.text_start && addr < m.text_end) {
      switch (ctx.kind) {
        case AccessKind::kRead:
          return AccessResult::kOk;
        case AccessKind::kWrite:
          violation_ = true;
          violation_addr_ = addr;
          return AccessResult::kReset;
        case AccessKind::kFetch:
          if (addr == m.text_start ||
              (subject.has_value() && *subject == static_cast<int>(i))) {
            return AccessResult::kOk;
          }
          violation_ = true;
          violation_addr_ = addr;
          return AccessResult::kReset;
      }
    }
    // Data section: exclusively for the module's own text.
    if (addr >= m.data_start && addr < m.data_end) {
      if (subject.has_value() && *subject == static_cast<int>(i)) {
        return AccessResult::kOk;
      }
      violation_ = true;
      violation_addr_ = addr;
      return AccessResult::kReset;
    }
  }
  return AccessResult::kOk;
}

SpongentDigest SancusUnit::DeriveKey(const std::vector<uint8_t>& text) const {
  return SpongentMac(master_key_, text);
}

SpongentDigest SancusUnit::ExpectedTag(const SpongentDigest& key,
                                       uint32_t nonce,
                                       const std::vector<uint8_t>& target) const {
  std::vector<uint8_t> message(4 + target.size());
  StoreLe32(message.data(), nonce);
  std::copy(target.begin(), target.end(), message.begin() + 4);
  return SpongentMac(std::vector<uint8_t>(key.begin(), key.end()), message);
}

bool SancusUnit::HandleInstruction(const Instruction& insn, Cpu* cpu) {
  switch (insn.opcode) {
    case Opcode::kProtect:
      return DoProtect(insn, cpu);
    case Opcode::kUnprotect:
      return DoUnprotect(cpu);
    case Opcode::kAttest:
      return DoAttest(insn, cpu);
    default:
      return false;
  }
}

bool SancusUnit::DoProtect(const Instruction& insn, Cpu* cpu) {
  const uint32_t desc = cpu->reg(insn.rs1);
  uint32_t text_start = 0;
  uint32_t text_end = 0;
  uint32_t data_start = 0;
  uint32_t data_end = 0;
  if (!bus_->HostReadWord(desc, &text_start) ||
      !bus_->HostReadWord(desc + 4, &text_end) ||
      !bus_->HostReadWord(desc + 8, &data_start) ||
      !bus_->HostReadWord(desc + 12, &data_end)) {
    cpu->set_reg(0, 0);
    return true;
  }
  if (text_start >= text_end || data_start > data_end ||
      Overlaps(text_start, text_end) || Overlaps(data_start, data_end)) {
    cpu->set_reg(0, 0);
    return true;
  }
  for (SancusModule& m : modules_) {
    if (m.active) {
      continue;
    }
    m.active = true;
    m.id = next_id_++;
    m.text_start = text_start;
    m.text_end = text_end;
    m.data_start = data_start;
    m.data_end = data_end;
    std::vector<uint8_t> text;
    if (!bus_->HostReadBytes(text_start, text_end - text_start, &text)) {
      m = SancusModule{};
      cpu->set_reg(0, 0);
      return true;
    }
    m.key = DeriveKey(text);
    // Key derivation hashes the whole text in the hardware engine.
    cpu->AddCycles(kSancusMacFixedCycles +
                   kSancusMacCyclesPerByte * text.size());
    cpu->set_reg(0, m.id);
    return true;
  }
  cpu->set_reg(0, 0);  // Out of module slots (production-time limit).
  return true;
}

bool SancusUnit::DoUnprotect(Cpu* cpu) {
  const std::optional<int> subject = ModuleContaining(cpu->ip());
  if (subject.has_value()) {
    modules_[static_cast<size_t>(*subject)] = SancusModule{};
  }
  return true;
}

bool SancusUnit::DoAttest(const Instruction& insn, Cpu* cpu) {
  const std::optional<int> subject = ModuleContaining(cpu->ip());
  if (!subject.has_value()) {
    cpu->set_reg(insn.rd, 0);  // Only modules hold keys.
    return true;
  }
  const uint32_t desc = cpu->reg(insn.rs1);
  uint32_t out_ptr = 0;
  uint32_t target_start = 0;
  uint32_t target_end = 0;
  uint32_t nonce = 0;
  if (!bus_->HostReadWord(desc, &out_ptr) ||
      !bus_->HostReadWord(desc + 4, &target_start) ||
      !bus_->HostReadWord(desc + 8, &target_end) ||
      !bus_->HostReadWord(desc + 12, &nonce) || target_start > target_end) {
    cpu->set_reg(insn.rd, 0);
    return true;
  }
  std::vector<uint8_t> target;
  if (!bus_->HostReadBytes(target_start, target_end - target_start, &target)) {
    cpu->set_reg(insn.rd, 0);
    return true;
  }
  const SpongentDigest tag =
      ExpectedTag(modules_[static_cast<size_t>(*subject)].key, nonce, target);
  // The engine writes the tag with the caller's authority: forging output
  // into foreign memory is still subject to protection checks.
  AccessContext ctx;
  ctx.curr_ip = cpu->ip();
  ctx.kind = AccessKind::kWrite;
  for (size_t i = 0; i < tag.size(); ++i) {
    if (bus_->Write(ctx, out_ptr + static_cast<uint32_t>(i), 1, tag[i]) !=
        AccessResult::kOk) {
      cpu->set_reg(insn.rd, 0);
      return true;
    }
  }
  cpu->AddCycles(kSancusMacFixedCycles +
                 kSancusMacCyclesPerByte * (target.size() + 4));
  cpu->set_reg(insn.rd, 1);
  return true;
}

}  // namespace trustlite
