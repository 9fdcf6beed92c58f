// A program is an immutable sequence of instructions plus metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/instr.hpp"

namespace bg::vm {

/// One pre-decoded instruction: the same operand fields as Instr with
/// the immediate's unsigned reinterpretation folded in at decode time.
/// Cores execute straight from a Program's dense DecodedInstr array
/// (the decoded-instruction cache), so the per-instruction hot path
/// never re-derives anything from the encoding.
struct DecodedInstr {
  Op op = Op::kNop;
  Reg rd = 0;
  Reg ra = 0;
  Reg rb = 0;
  std::uint8_t flags = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t uimm = 0;  // imm as unsigned: branch targets, addends
  std::int64_t imm = 0;
};

class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instr> code)
      : name_(std::move(name)), code_(std::move(code)) {
    decode();
  }

  const std::string& name() const { return name_; }
  std::size_t size() const { return code_.size(); }
  const Instr& at(std::uint64_t pc) const { return code_[pc]; }
  bool valid(std::uint64_t pc) const { return pc < code_.size(); }

  /// Dense decoded image, built once at construction; size() entries.
  const DecodedInstr* decoded() const { return decoded_.data(); }

  /// Human-readable disassembly (debugging aid).
  std::string disassemble() const;

 private:
  void decode();

  std::string name_;
  std::vector<Instr> code_;
  std::vector<DecodedInstr> decoded_;
};

}  // namespace bg::vm
