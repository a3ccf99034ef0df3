// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/isa/assembler.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdio>

#include "src/common/bytes.h"
#include "src/isa/isa.h"

namespace trustlite {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

// Strips comments (';', '#', '//') outside of string/char literals.
std::string StripComment(const std::string& line) {
  bool in_string = false;
  bool in_char = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (in_char) {
      if (c == '\\') {
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '\'') {
      in_char = true;
    } else if (c == ';' || c == '#') {
      return line.substr(0, i);
    } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      return line.substr(0, i);
    }
  }
  return line;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

// Splits an operand list on top-level commas (commas inside quotes or
// brackets do not split).
std::vector<std::string> SplitOperands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int bracket_depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      cur.push_back(c);
      if (c == '\\' && i + 1 < s.size()) {
        cur.push_back(s[++i]);
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      cur.push_back(c);
    } else if (c == '[') {
      ++bracket_depth;
      cur.push_back(c);
    } else if (c == ']') {
      --bracket_depth;
      cur.push_back(c);
    } else if (c == ',' && bracket_depth == 0) {
      out.push_back(Trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  const std::string last = Trim(cur);
  if (!last.empty() || !out.empty()) {
    out.push_back(last);
  }
  return out;
}

struct EvalContext {
  const std::map<std::string, uint32_t>* symbols;
  uint32_t location;   // Value of '.'.
  bool allow_unknown;  // Pass 1: unknown symbols evaluate to 0.
};

// Recursive-descent evaluator for  expr := term (('+'|'-') term)*.
class ExprParser {
 public:
  ExprParser(const std::string& text, const EvalContext& ctx)
      : text_(text), ctx_(ctx) {}

  Result<int64_t> Parse() {
    Result<int64_t> value = ParseExpr();
    if (!value.ok()) {
      return value;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgument("trailing characters in expression: '" + text_ + "'");
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<int64_t> ParseExpr() {
    Result<int64_t> left = ParseTerm();
    if (!left.ok()) {
      return left;
    }
    int64_t acc = *left;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) {
        break;
      }
      const char op = text_[pos_];
      if (op != '+' && op != '-') {
        break;
      }
      ++pos_;
      Result<int64_t> right = ParseTerm();
      if (!right.ok()) {
        return right;
      }
      acc = (op == '+') ? acc + *right : acc - *right;
    }
    return acc;
  }

  Result<int64_t> ParseTerm() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return InvalidArgument("expected operand in expression: '" + text_ + "'");
    }
    const char c = text_[pos_];
    if (c == '-') {
      ++pos_;
      Result<int64_t> inner = ParseTerm();
      if (!inner.ok()) {
        return inner;
      }
      return -*inner;
    }
    if (c == '~') {
      ++pos_;
      Result<int64_t> inner = ParseTerm();
      if (!inner.ok()) {
        return inner;
      }
      return ~*inner;
    }
    if (c == '(') {
      ++pos_;
      Result<int64_t> inner = ParseExpr();
      if (!inner.ok()) {
        return inner;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        return InvalidArgument("missing ')' in expression: '" + text_ + "'");
      }
      ++pos_;
      return inner;
    }
    if (c == '\'') {
      return ParseCharLiteral();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    if (IsIdentStart(c)) {
      return ParseSymbol();
    }
    return InvalidArgument(std::string("unexpected character '") + c +
                           "' in expression: '" + text_ + "'");
  }

  Result<int64_t> ParseCharLiteral() {
    ++pos_;  // consume '
    if (pos_ >= text_.size()) {
      return InvalidArgument("unterminated char literal");
    }
    int64_t value;
    if (text_[pos_] == '\\') {
      ++pos_;
      if (pos_ >= text_.size()) {
        return InvalidArgument("unterminated escape in char literal");
      }
      switch (text_[pos_]) {
        case 'n': value = '\n'; break;
        case 't': value = '\t'; break;
        case 'r': value = '\r'; break;
        case '0': value = 0; break;
        case '\\': value = '\\'; break;
        case '\'': value = '\''; break;
        default:
          return InvalidArgument("unknown escape in char literal");
      }
      ++pos_;
    } else {
      value = static_cast<unsigned char>(text_[pos_++]);
    }
    if (pos_ >= text_.size() || text_[pos_] != '\'') {
      return InvalidArgument("unterminated char literal");
    }
    ++pos_;
    return value;
  }

  Result<int64_t> ParseNumber() {
    int base = 10;
    if (text_[pos_] == '0' && pos_ + 1 < text_.size()) {
      const char next = static_cast<char>(
          std::tolower(static_cast<unsigned char>(text_[pos_ + 1])));
      if (next == 'x') {
        base = 16;
        pos_ += 2;
      } else if (next == 'b') {
        base = 2;
        pos_ += 2;
      }
    }
    uint64_t value = 0;
    size_t digits = 0;
    while (pos_ < text_.size()) {
      const char c = static_cast<char>(
          std::tolower(static_cast<unsigned char>(text_[pos_])));
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        break;
      }
      if (digit >= base) {
        break;
      }
      value = value * base + static_cast<uint64_t>(digit);
      ++digits;
      ++pos_;
    }
    if (digits == 0) {
      return InvalidArgument("malformed number in expression: '" + text_ + "'");
    }
    return static_cast<int64_t>(value);
  }

  Result<int64_t> ParseSymbol() {
    if (text_[pos_] == '.' &&
        (pos_ + 1 >= text_.size() || !IsIdentChar(text_[pos_ + 1]))) {
      ++pos_;
      return static_cast<int64_t>(ctx_.location);
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) {
      ++pos_;
    }
    const std::string name = text_.substr(start, pos_ - start);
    auto it = ctx_.symbols->find(name);
    if (it != ctx_.symbols->end()) {
      return static_cast<int64_t>(it->second);
    }
    if (ctx_.allow_unknown) {
      return 0;
    }
    return NotFound("undefined symbol '" + name + "'");
  }

  const std::string& text_;
  const EvalContext& ctx_;
  size_t pos_ = 0;
};

Result<int64_t> EvalExpr(const std::string& text, const EvalContext& ctx) {
  return ExprParser(text, ctx).Parse();
}

// Parses a "[reg]", "[reg + expr]" or "[reg - expr]" memory operand.
// Returns ok and fills reg/offset_expr; offset_expr may be empty (== 0).
Status ParseMemOperand(const std::string& operand, int* reg,
                       std::string* offset_expr) {
  const std::string t = Trim(operand);
  if (t.size() < 3 || t.front() != '[' || t.back() != ']') {
    return InvalidArgument("expected memory operand '[reg+off]', got '" + operand + "'");
  }
  std::string inner = Trim(t.substr(1, t.size() - 2));
  // Register part is the leading identifier.
  size_t i = 0;
  while (i < inner.size() && IsIdentChar(inner[i])) {
    ++i;
  }
  const std::string reg_name = Lower(inner.substr(0, i));
  std::optional<int> parsed = RegisterFromName(reg_name);
  if (!parsed.has_value()) {
    return InvalidArgument("bad base register '" + reg_name + "'");
  }
  *reg = *parsed;
  std::string rest = Trim(inner.substr(i));
  if (rest.empty()) {
    offset_expr->clear();
    return OkStatus();
  }
  if (rest[0] != '+' && rest[0] != '-') {
    return InvalidArgument("expected '+' or '-' after base register in '" + operand + "'");
  }
  *offset_expr = rest;  // keep sign; evaluator handles unary minus via 0+expr
  if (rest[0] == '+') {
    *offset_expr = Trim(rest.substr(1));
  }
  return OkStatus();
}

// One parsed source statement (post label-extraction).
struct Statement {
  int line_number = 0;
  std::string mnemonic;  // lower-case; empty if label-only/directive-only line
  std::vector<std::string> operands;
};

class Assembler {
 public:
  explicit Assembler(uint32_t origin) : origin_(origin) {}

  Result<AsmOutput> Run(const std::string& source) {
    TL_RETURN_IF_ERROR(ParseLines(source));
    TL_RETURN_IF_ERROR(Pass(/*final_pass=*/false));
    chunks_.clear();
    TL_RETURN_IF_ERROR(Pass(/*final_pass=*/true));
    AsmOutput out;
    out.chunks = std::move(chunks_);
    out.symbols = symbols_;
    return out;
  }

 private:
  struct Line {
    int number;
    std::string label;      // empty if none
    Statement stmt;         // mnemonic may be empty
    std::string raw_rest;   // operand text (for directives needing raw text)
  };

  Status ParseLines(const std::string& source) {
    int number = 0;
    size_t pos = 0;
    while (pos <= source.size()) {
      const size_t nl = source.find('\n', pos);
      std::string raw = source.substr(
          pos, nl == std::string::npos ? std::string::npos : nl - pos);
      pos = (nl == std::string::npos) ? source.size() + 1 : nl + 1;
      ++number;
      std::string text = Trim(StripComment(raw));
      if (text.empty()) {
        continue;
      }
      Line line;
      line.number = number;
      // Labels: leading identifiers followed by ':' (may repeat).
      for (;;) {
        size_t i = 0;
        while (i < text.size() && IsIdentChar(text[i])) {
          ++i;
        }
        if (i > 0 && i < text.size() && text[i] == ':') {
          if (!line.label.empty()) {
            // Multiple labels on one line: emit the first as its own line.
            Line label_only;
            label_only.number = number;
            label_only.label = line.label;
            lines_.push_back(label_only);
          }
          line.label = text.substr(0, i);
          text = Trim(text.substr(i + 1));
          if (text.empty()) {
            break;
          }
          continue;
        }
        break;
      }
      if (!text.empty()) {
        size_t i = 0;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
          ++i;
        }
        line.stmt.line_number = number;
        line.stmt.mnemonic = Lower(text.substr(0, i));
        line.raw_rest = Trim(text.substr(i));
        line.stmt.operands = SplitOperands(line.raw_rest);
      }
      lines_.push_back(line);
    }
    return OkStatus();
  }

  Status LineError(int number, const std::string& msg) {
    return InvalidArgument("line " + std::to_string(number) + ": " + msg);
  }

  // Runs one pass. In the sizing pass (final_pass == false) labels are
  // recorded and unknown symbols evaluate to 0; in the final pass all
  // expressions must resolve and bytes are emitted.
  Status Pass(bool final_pass) {
    location_ = origin_;
    chunk_open_ = false;
    final_pass_ = final_pass;
    for (const Line& line : lines_) {
      if (!line.label.empty()) {
        if (!final_pass) {
          auto [it, inserted] = symbols_.emplace(line.label, location_);
          if (!inserted) {
            return LineError(line.number, "duplicate label '" + line.label + "'");
          }
        } else {
          // Labels must land on the same address in both passes.
          if (symbols_.at(line.label) != location_) {
            return Internal("label '" + line.label + "' moved between passes (line " +
                            std::to_string(line.number) + ")");
          }
        }
      }
      if (line.stmt.mnemonic.empty()) {
        continue;
      }
      Status st = line.stmt.mnemonic[0] == '.'
                      ? HandleDirective(line)
                      : HandleInstruction(line.stmt);
      if (!st.ok()) {
        return st;
      }
    }
    return OkStatus();
  }

  // --- Emission --------------------------------------------------------

  void EnsureChunk() {
    if (!chunk_open_) {
      chunks_.push_back(AsmChunk{location_, {}});
      chunk_open_ = true;
    }
  }

  void EmitByte(uint8_t b) {
    if (final_pass_) {
      EnsureChunk();
      chunks_.back().bytes.push_back(b);
    }
    ++location_;
  }

  void EmitWord(uint32_t w) {
    if (final_pass_) {
      EnsureChunk();
      AppendLe32(chunks_.back().bytes, w);
    }
    location_ += 4;
  }

  // Pass 1 only lays out addresses: forward labels and operand range checks
  // are not final yet, so the instruction is encoded on the final pass only.
  void EmitInsn(const Instruction& insn) {
    EmitWord(final_pass_ ? Encode(insn) : 0);
  }

  // --- Expression helpers ---------------------------------------------

  Result<int64_t> Eval(const std::string& expr, int line_number) {
    EvalContext ctx{&symbols_, location_, /*allow_unknown=*/!final_pass_};
    Result<int64_t> r = EvalExpr(expr, ctx);
    if (!r.ok()) {
      return Status(r.status().code(),
                    "line " + std::to_string(line_number) + ": " + r.status().message());
    }
    return r;
  }

  // Evaluates an expression that must be known already in pass 1 (layout-
  // affecting directives).
  Result<int64_t> EvalStrict(const std::string& expr, int line_number) {
    EvalContext ctx{&symbols_, location_, /*allow_unknown=*/false};
    Result<int64_t> r = EvalExpr(expr, ctx);
    if (!r.ok()) {
      return Status(r.status().code(),
                    "line " + std::to_string(line_number) + ": " + r.status().message());
    }
    return r;
  }

  Result<int> ParseReg(const std::string& operand, int line_number) {
    std::optional<int> reg = RegisterFromName(Lower(Trim(operand)));
    if (!reg.has_value()) {
      return Status(StatusCode::kInvalidArgument,
                    "line " + std::to_string(line_number) + ": bad register '" +
                        operand + "'");
    }
    return *reg;
  }

  // --- Directives ------------------------------------------------------

  Status HandleDirective(const Line& line) {
    const Statement& s = line.stmt;
    const std::string& d = s.mnemonic;
    const int ln = s.line_number;
    if (d == ".org") {
      if (s.operands.size() != 1) {
        return LineError(ln, ".org takes one operand");
      }
      Result<int64_t> v = EvalStrict(s.operands[0], ln);
      if (!v.ok()) {
        return v.status();
      }
      location_ = static_cast<uint32_t>(*v);
      chunk_open_ = false;
      return OkStatus();
    }
    if (d == ".align") {
      if (s.operands.size() != 1) {
        return LineError(ln, ".align takes one operand");
      }
      Result<int64_t> v = EvalStrict(s.operands[0], ln);
      if (!v.ok()) {
        return v.status();
      }
      const uint32_t align = static_cast<uint32_t>(*v);
      if (align == 0 || (align & (align - 1)) != 0) {
        return LineError(ln, ".align requires a power of two");
      }
      while ((location_ & (align - 1)) != 0) {
        EmitByte(0);
      }
      return OkStatus();
    }
    if (d == ".equ") {
      if (s.operands.size() != 2) {
        return LineError(ln, ".equ takes 'name, expr'");
      }
      const std::string name = Trim(s.operands[0]);
      if (name.empty() || !IsIdentStart(name[0])) {
        return LineError(ln, "bad .equ name '" + name + "'");
      }
      Result<int64_t> v = EvalStrict(s.operands[1], ln);
      if (!v.ok()) {
        return v.status();
      }
      if (!final_pass_) {
        auto [it, inserted] = symbols_.emplace(name, static_cast<uint32_t>(*v));
        if (!inserted) {
          return LineError(ln, "duplicate symbol '" + name + "'");
        }
      }
      return OkStatus();
    }
    if (d == ".word" || d == ".half" || d == ".byte") {
      for (const std::string& operand : s.operands) {
        Result<int64_t> v = Eval(operand, ln);
        if (!v.ok()) {
          return v.status();
        }
        const uint32_t value = static_cast<uint32_t>(*v);
        if (d == ".word") {
          EmitWord(value);
        } else if (d == ".half") {
          EmitByte(static_cast<uint8_t>(value));
          EmitByte(static_cast<uint8_t>(value >> 8));
        } else {
          EmitByte(static_cast<uint8_t>(value));
        }
      }
      return OkStatus();
    }
    if (d == ".ascii" || d == ".asciiz") {
      std::string text = line.raw_rest;
      if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
        return LineError(ln, d + " requires a quoted string");
      }
      text = text.substr(1, text.size() - 2);
      for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\\' && i + 1 < text.size()) {
          ++i;
          switch (text[i]) {
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            case 'r': c = '\r'; break;
            case '0': c = '\0'; break;
            case '\\': c = '\\'; break;
            case '"': c = '"'; break;
            default:
              return LineError(ln, "unknown string escape");
          }
        }
        EmitByte(static_cast<uint8_t>(c));
      }
      if (d == ".asciiz") {
        EmitByte(0);
      }
      return OkStatus();
    }
    if (d == ".space") {
      if (s.operands.empty() || s.operands.size() > 2) {
        return LineError(ln, ".space takes 'count[, fill]'");
      }
      Result<int64_t> count = EvalStrict(s.operands[0], ln);
      if (!count.ok()) {
        return count.status();
      }
      uint8_t fill = 0;
      if (s.operands.size() == 2) {
        Result<int64_t> f = EvalStrict(s.operands[1], ln);
        if (!f.ok()) {
          return f.status();
        }
        fill = static_cast<uint8_t>(*f);
      }
      for (int64_t i = 0; i < *count; ++i) {
        EmitByte(fill);
      }
      return OkStatus();
    }
    if (d == ".global" || d == ".globl") {
      return OkStatus();  // All symbols are global; accepted for familiarity.
    }
    return LineError(ln, "unknown directive '" + d + "'");
  }

  // --- Instructions ----------------------------------------------------

  Status HandleInstruction(const Statement& s) {
    const int ln = s.line_number;
    // Pseudo-instructions first.
    if (s.mnemonic == "mov") {
      if (s.operands.size() != 2) {
        return LineError(ln, "mov takes 'rd, rs'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      Result<int> rs = ParseReg(s.operands[1], ln);
      if (!rd.ok()) return rd.status();
      if (!rs.ok()) return rs.status();
      EmitInsn({Opcode::kAddi, static_cast<uint8_t>(*rd),
                static_cast<uint8_t>(*rs), 0, 0});
      return OkStatus();
    }
    if (s.mnemonic == "li" || s.mnemonic == "la") {
      if (s.operands.size() != 2) {
        return LineError(ln, s.mnemonic + " takes 'rd, expr'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      if (!rd.ok()) return rd.status();
      // Decide the width in pass 1 *without* symbol values so that layout is
      // stable: any expression containing a symbol or '.' uses the two-word
      // form; pure numeric expressions use the short form when they fit.
      const bool symbolic = ExprMentionsSymbol(s.operands[1]);
      Result<int64_t> v = Eval(s.operands[1], ln);
      if (!v.ok()) {
        return v.status();
      }
      const uint32_t value = static_cast<uint32_t>(*v);
      const bool wide = s.mnemonic == "la" || symbolic ||
                        !FitsSigned(static_cast<int32_t>(value), 18);
      if (!wide) {
        EmitInsn({Opcode::kMovi, static_cast<uint8_t>(*rd), 0, 0,
                  static_cast<int32_t>(value)});
      } else {
        EmitInsn({Opcode::kLui, static_cast<uint8_t>(*rd), 0, 0,
                  static_cast<int32_t>(value >> 10)});
        EmitInsn({Opcode::kOri, static_cast<uint8_t>(*rd),
                  static_cast<uint8_t>(*rd), 0,
                  static_cast<int32_t>(value & 0x3FF)});
      }
      return OkStatus();
    }
    if (s.mnemonic == "ret") {
      if (!s.operands.empty() && !(s.operands.size() == 1 && s.operands[0].empty())) {
        return LineError(ln, "ret takes no operands");
      }
      EmitInsn({Opcode::kJr, 0, kRegLr, 0, 0});
      return OkStatus();
    }
    if (s.mnemonic == "call") {
      return EmitJump(Opcode::kJal, s);
    }
    if (s.mnemonic == "b") {
      return EmitJump(Opcode::kJmp, s);
    }
    if (s.mnemonic == "push" || s.mnemonic == "pop") {
      if (s.operands.size() != 1) {
        return LineError(ln, s.mnemonic + " takes one register");
      }
      Result<int> reg = ParseReg(s.operands[0], ln);
      if (!reg.ok()) return reg.status();
      const uint8_t r = static_cast<uint8_t>(*reg);
      if (s.mnemonic == "push") {
        EmitInsn({Opcode::kAddi, kRegSp, kRegSp, 0, -4});
        EmitInsn({Opcode::kStw, r, kRegSp, 0, 0});
      } else {
        EmitInsn({Opcode::kLdw, r, kRegSp, 0, 0});
        EmitInsn({Opcode::kAddi, kRegSp, kRegSp, 0, 4});
      }
      return OkStatus();
    }
    // Reversed-compare branch aliases.
    if (s.mnemonic == "bgt" || s.mnemonic == "ble" || s.mnemonic == "bgtu" ||
        s.mnemonic == "bleu") {
      Opcode op;
      if (s.mnemonic == "bgt") {
        op = Opcode::kBlt;
      } else if (s.mnemonic == "ble") {
        op = Opcode::kBge;
      } else if (s.mnemonic == "bgtu") {
        op = Opcode::kBltu;
      } else {
        op = Opcode::kBgeu;
      }
      if (s.operands.size() != 3) {
        return LineError(ln, s.mnemonic + " takes 'rs1, rs2, target'");
      }
      Statement swapped = s;
      std::swap(swapped.operands[0], swapped.operands[1]);
      return EmitBranch(op, swapped);
    }

    std::optional<Opcode> op = OpcodeFromName(s.mnemonic);
    if (!op.has_value()) {
      return LineError(ln, "unknown mnemonic '" + s.mnemonic + "'");
    }
    switch (FormatOf(*op)) {
      case InstructionFormat::kNone:
        if (!s.operands.empty() && !(s.operands.size() == 1 && s.operands[0].empty())) {
          return LineError(ln, s.mnemonic + " takes no operands");
        }
        EmitInsn({*op, 0, 0, 0, 0});
        return OkStatus();
      case InstructionFormat::kR:
        return EmitRType(*op, s);
      case InstructionFormat::kI:
        return EmitIType(*op, s);
      case InstructionFormat::kU:
        return EmitUType(*op, s);
      case InstructionFormat::kB:
        return EmitBranch(*op, s);
      case InstructionFormat::kJ:
        return EmitJump(*op, s);
    }
    return LineError(ln, "unreachable");
  }

  static bool ExprMentionsSymbol(const std::string& expr) {
    bool in_char = false;
    for (size_t i = 0; i < expr.size(); ++i) {
      const char c = expr[i];
      if (in_char) {
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          in_char = false;
        }
        continue;
      }
      if (c == '\'') {
        in_char = true;
        continue;
      }
      if (IsIdentStart(c) && !(c == '.' && i + 1 < expr.size() &&
                               !IsIdentChar(expr[i + 1]))) {
        // Any identifier, including '.', counts as symbolic; skip hex/binary
        // prefixes which start with a digit so never reach here.
        if (std::isdigit(static_cast<unsigned char>(c))) {
          continue;
        }
        return true;
      }
      if (c == '.') {
        return true;
      }
      // Skip through numbers so their 'x'/'b' markers don't look like idents.
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < expr.size() && IsIdentChar(expr[j])) {
          ++j;
        }
        i = j - 1;
      }
    }
    return false;
  }

  Status EmitRType(Opcode op, const Statement& s) {
    const int ln = s.line_number;
    Instruction insn{op, 0, 0, 0, 0};
    if (op == Opcode::kJr) {
      if (s.operands.size() != 1) {
        return LineError(ln, "jr takes one register");
      }
      Result<int> rs = ParseReg(s.operands[0], ln);
      if (!rs.ok()) return rs.status();
      insn.rs1 = static_cast<uint8_t>(*rs);
    } else if (op == Opcode::kJalr) {
      if (s.operands.size() != 1) {
        return LineError(ln, "jalr takes one register");
      }
      Result<int> rs = ParseReg(s.operands[0], ln);
      if (!rs.ok()) return rs.status();
      insn.rs1 = static_cast<uint8_t>(*rs);
    } else if (op == Opcode::kUnprotect) {
      // No operands.
    } else if (op == Opcode::kProtect) {
      if (s.operands.size() != 1) {
        return LineError(ln, "protect takes 'rs1' (descriptor pointer)");
      }
      Result<int> rs = ParseReg(s.operands[0], ln);
      if (!rs.ok()) return rs.status();
      insn.rs1 = static_cast<uint8_t>(*rs);
    } else if (op == Opcode::kAttest) {
      if (s.operands.size() != 2) {
        return LineError(ln, "attest takes 'rd, rs1'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      Result<int> rs = ParseReg(s.operands[1], ln);
      if (!rd.ok()) return rd.status();
      if (!rs.ok()) return rs.status();
      insn.rd = static_cast<uint8_t>(*rd);
      insn.rs1 = static_cast<uint8_t>(*rs);
    } else {
      if (s.operands.size() != 3) {
        return LineError(ln, s.mnemonic + " takes 'rd, rs1, rs2'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      Result<int> rs1 = ParseReg(s.operands[1], ln);
      Result<int> rs2 = ParseReg(s.operands[2], ln);
      if (!rd.ok()) return rd.status();
      if (!rs1.ok()) return rs1.status();
      if (!rs2.ok()) return rs2.status();
      insn.rd = static_cast<uint8_t>(*rd);
      insn.rs1 = static_cast<uint8_t>(*rs1);
      insn.rs2 = static_cast<uint8_t>(*rs2);
    }
    EmitInsn(insn);
    return OkStatus();
  }

  Status EmitIType(Opcode op, const Statement& s) {
    const int ln = s.line_number;
    Instruction insn{op, 0, 0, 0, 0};
    if (IsMemoryOp(op)) {
      if (s.operands.size() != 2) {
        return LineError(ln, s.mnemonic + " takes 'reg, [base+off]'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      if (!rd.ok()) return rd.status();
      int base = 0;
      std::string offset_expr;
      Status st = ParseMemOperand(s.operands[1], &base, &offset_expr);
      if (!st.ok()) {
        return LineError(ln, st.message());
      }
      int64_t offset = 0;
      if (!offset_expr.empty()) {
        Result<int64_t> v = Eval(offset_expr, ln);
        if (!v.ok()) return v.status();
        offset = *v;
      }
      if (final_pass_ && !FitsSigned(offset, 18)) {
        return LineError(ln, "memory offset out of range");
      }
      insn.rd = static_cast<uint8_t>(*rd);
      insn.rs1 = static_cast<uint8_t>(base);
      insn.imm = static_cast<int32_t>(offset);
      EmitInsn(insn);
      return OkStatus();
    }
    if (op == Opcode::kSwi) {
      if (s.operands.size() != 1) {
        return LineError(ln, "swi takes a vector number");
      }
      Result<int64_t> v = Eval(s.operands[0], ln);
      if (!v.ok()) return v.status();
      insn.imm = static_cast<int32_t>(*v);
      EmitInsn(insn);
      return OkStatus();
    }
    if (op == Opcode::kMovi) {
      if (s.operands.size() != 2) {
        return LineError(ln, "movi takes 'rd, imm'");
      }
      Result<int> rd = ParseReg(s.operands[0], ln);
      if (!rd.ok()) return rd.status();
      Result<int64_t> v = Eval(s.operands[1], ln);
      if (!v.ok()) return v.status();
      if (final_pass_ && !FitsSigned(*v, 18)) {
        return LineError(ln, "movi immediate out of range (use li)");
      }
      insn.rd = static_cast<uint8_t>(*rd);
      insn.imm = static_cast<int32_t>(*v);
      EmitInsn(insn);
      return OkStatus();
    }
    // Standard rd, rs1, imm ALU form.
    if (s.operands.size() != 3) {
      return LineError(ln, s.mnemonic + " takes 'rd, rs1, imm'");
    }
    Result<int> rd = ParseReg(s.operands[0], ln);
    Result<int> rs1 = ParseReg(s.operands[1], ln);
    if (!rd.ok()) return rd.status();
    if (!rs1.ok()) return rs1.status();
    Result<int64_t> v = Eval(s.operands[2], ln);
    if (!v.ok()) return v.status();
    int64_t imm = *v;
    // andi/ori/xori commonly take bit patterns; accept anything representable
    // in 18 bits signed or unsigned.
    if (final_pass_ && !FitsSigned(imm, 18) &&
        !FitsUnsigned(static_cast<uint64_t>(imm), 18)) {
      return LineError(ln, "immediate out of range");
    }
    if (!FitsSigned(imm, 18)) {
      imm = SignExtend(static_cast<uint32_t>(imm), 18);
    }
    insn.rd = static_cast<uint8_t>(*rd);
    insn.rs1 = static_cast<uint8_t>(*rs1);
    insn.imm = static_cast<int32_t>(imm);
    EmitInsn(insn);
    return OkStatus();
  }

  Status EmitUType(Opcode op, const Statement& s) {
    const int ln = s.line_number;
    if (s.operands.size() != 2) {
      return LineError(ln, s.mnemonic + " takes 'rd, imm22'");
    }
    Result<int> rd = ParseReg(s.operands[0], ln);
    if (!rd.ok()) return rd.status();
    Result<int64_t> v = Eval(s.operands[1], ln);
    if (!v.ok()) return v.status();
    if (final_pass_ && !FitsUnsigned(static_cast<uint64_t>(*v), 22)) {
      return LineError(ln, "lui immediate out of range");
    }
    EmitInsn({op, static_cast<uint8_t>(*rd), 0, 0, static_cast<int32_t>(*v)});
    return OkStatus();
  }

  Status EmitBranch(Opcode op, const Statement& s) {
    const int ln = s.line_number;
    if (s.operands.size() != 3) {
      return LineError(ln, s.mnemonic + " takes 'rs1, rs2, target'");
    }
    Result<int> rs1 = ParseReg(s.operands[0], ln);
    Result<int> rs2 = ParseReg(s.operands[1], ln);
    if (!rs1.ok()) return rs1.status();
    if (!rs2.ok()) return rs2.status();
    Result<int64_t> target = Eval(s.operands[2], ln);
    if (!target.ok()) return target.status();
    const int64_t offset = *target - static_cast<int64_t>(location_);
    if (final_pass_) {
      if ((offset & 3) != 0) {
        return LineError(ln, "branch target not 4-byte aligned");
      }
      if (!FitsSigned(offset >> 2, 18)) {
        return LineError(ln, "branch target out of range");
      }
    }
    EmitInsn({op, static_cast<uint8_t>(*rs1), static_cast<uint8_t>(*rs2), 0,
              static_cast<int32_t>(offset)});
    return OkStatus();
  }

  Status EmitJump(Opcode op, const Statement& s) {
    const int ln = s.line_number;
    if (s.operands.size() != 1) {
      return LineError(ln, s.mnemonic + " takes a target");
    }
    Result<int64_t> target = Eval(s.operands[0], ln);
    if (!target.ok()) return target.status();
    const int64_t offset = *target - static_cast<int64_t>(location_);
    if (final_pass_) {
      if ((offset & 3) != 0) {
        return LineError(ln, "jump target not 4-byte aligned");
      }
      if (!FitsSigned(offset >> 2, 26)) {
        return LineError(ln, "jump target out of range");
      }
    }
    EmitInsn({op, 0, 0, 0, static_cast<int32_t>(offset)});
    return OkStatus();
  }

  uint32_t origin_;
  uint32_t location_ = 0;
  bool chunk_open_ = false;
  bool final_pass_ = false;
  std::vector<Line> lines_;
  std::vector<AsmChunk> chunks_;
  std::map<std::string, uint32_t> symbols_;
};

}  // namespace

std::vector<uint8_t> AsmOutput::Flatten(uint32_t* image_base) const {
  if (chunks.empty()) {
    if (image_base != nullptr) {
      *image_base = 0;
    }
    return {};
  }
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (const AsmChunk& c : chunks) {
    lo = std::min(lo, c.base);
    hi = std::max(hi, c.base + static_cast<uint32_t>(c.bytes.size()));
  }
  std::vector<uint8_t> image(hi - lo, 0);
  for (const AsmChunk& c : chunks) {
    std::copy(c.bytes.begin(), c.bytes.end(), image.begin() + (c.base - lo));
  }
  if (image_base != nullptr) {
    *image_base = lo;
  }
  return image;
}

uint32_t AsmOutput::SymbolOrDie(const std::string& name) const {
  auto it = symbols.find(name);
  assert(it != symbols.end() && "missing symbol");
  return it->second;
}

Result<AsmOutput> Assemble(const std::string& source, uint32_t origin) {
  return Assembler(origin).Run(source);
}

}  // namespace trustlite
