#include "eda/verify/program_io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_io.hpp"

namespace cim::eda::verify {
namespace {

namespace rio = util::record_io;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void dump_node(std::ostream& os, std::size_t node) {
  if (node == kNone)
    os << " @-";
  else
    os << " @" << node;
}

void dump_operand(std::ostream& os, const RevampOperand& op) {
  if (op.complemented) os << '!';
  switch (op.src) {
    case RevampOperand::Src::kConst0: os << "c0"; break;
    case RevampOperand::Src::kConst1: os << "c1"; break;
    case RevampOperand::Src::kInput: os << 'i' << op.input_index; break;
    case RevampOperand::Src::kDmr:
      os << 'd' << op.dmr_row << '.' << op.dmr_col;
      break;
  }
}

/// Widest ReVAMP crossbar a file may declare or address: beyond this a
/// bitline index is a typo, not a program, and must not size an allocation.
constexpr std::size_t kMaxBitlines = std::size_t{1} << 16;

std::size_t parse_node(const rio::LineReader& in, std::string_view tok) {
  if (tok == "@-") return kNone;
  const auto v =
      tok.starts_with('@') ? rio::parse_u64(tok.substr(1)) : std::nullopt;
  if (!v) in.fail("bad node annotation '" + std::string(tok) + "'");
  return *v;
}

RevampOperand parse_operand(const rio::LineReader& in, std::string_view tok) {
  RevampOperand op;
  std::string_view body = tok;
  if (body.starts_with('!')) {
    op.complemented = true;
    body.remove_prefix(1);
  }
  const std::size_t dot = body.find('.');
  if (body == "c0") {
    op.src = RevampOperand::Src::kConst0;
  } else if (body == "c1") {
    op.src = RevampOperand::Src::kConst1;
  } else if (body.starts_with('i')) {
    op.src = RevampOperand::Src::kInput;
    op.input_index = in.u64(body.substr(1), "operand input");
  } else if (body.starts_with('d') && dot != body.npos) {
    op.src = RevampOperand::Src::kDmr;
    op.dmr_row = in.u64(body.substr(1, dot - 1), "operand row");
    op.dmr_col = in.u64(body.substr(dot + 1), "operand column");
  } else {
    in.fail("bad operand '" + std::string(tok) + "'");
  }
  return op;
}

}  // namespace

void dump_program(std::ostream& os, const ImplyProgram& prog) {
  os << "cim-prog-v1 imply\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "cells " << prog.num_cells << "\n";
  os << "zero " << prog.zero_cell << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse)
      os << "false " << ins.dest;
    else
      os << "imply " << ins.dest << ' ' << ins.src;
    dump_node(os, ins.def_node);
    os << "\n";
  }
  for (const auto c : prog.output_cells) os << "output " << c << "\n";
}

void dump_program(std::ostream& os, const MagicProgram& prog) {
  os << "cim-prog-v1 magic\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "cells " << prog.num_cells << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      os << "set " << ins.out_cell;
    } else {
      os << "nor " << ins.out_cell;
      for (const auto c : ins.in_cells) os << ' ' << c;
    }
    dump_node(os, ins.node);
    os << "\n";
  }
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (k < prog.output_is_const.size() && prog.output_is_const[k])
      os << "output const "
         << (k < prog.const_values.size() && prog.const_values[k] ? 1 : 0)
         << "\n";
    else
      os << "output " << prog.output_cells[k] << "\n";
  }
}

void dump_program(std::ostream& os, const RevampProgram& prog) {
  os << "cim-prog-v1 revamp\n";
  os << "inputs " << prog.num_inputs << "\n";
  os << "wordlines " << prog.wordlines << "\n";
  os << "bitlines " << prog.bitlines << "\n";
  for (const auto& ins : prog.instrs) {
    if (ins.kind == RevampInstruction::Kind::kRead) {
      os << "read " << ins.wordline << "\n";
      continue;
    }
    os << "apply " << ins.wordline << ' ';
    dump_operand(os, ins.wl);
    for (std::size_t c = 0; c < ins.columns.size(); ++c) {
      if (!ins.columns[c]) continue;
      os << ' ' << c << '=';
      dump_operand(os, *ins.columns[c]);
    }
    os << "\n";
  }
  for (const auto& o : prog.outputs) {
    os << "output ";
    dump_operand(os, o);
    os << "\n";
  }
}

ParsedProgram parse_program(std::istream& is) {
  rio::LineReader in("cim-prog-v1", is);
  ParsedProgram out;
  bool have_header = false;
  std::string_view raw;
  while (in.next(raw)) {
    std::vector<std::string_view> t = rio::split(raw);
    // `#` starts a comment that runs to the end of the line.
    t.erase(std::find_if(t.begin(), t.end(),
                         [](std::string_view tok) { return tok[0] == '#'; }),
            t.end());
    if (t.empty()) continue;

    if (!have_header) {
      if (t.size() != 2 || t[0] != "cim-prog-v1")
        in.fail("expected 'cim-prog-v1 <family>' header");
      if (t[1] == "imply")
        out.family = ProgramFamily::kImply;
      else if (t[1] == "magic")
        out.family = ProgramFamily::kMagic;
      else if (t[1] == "revamp")
        out.family = ProgramFamily::kRevamp;
      else
        in.fail("unknown family '" + std::string(t[1]) + "'");
      have_header = true;
      continue;
    }

    const std::string kw(t[0]);
    // `<kw> <size>` directives.
    auto field = [&]() -> std::size_t {
      if (t.size() != 2) in.fail("bad '" + kw + "'");
      return in.u64(t[1], kw.c_str());
    };

    if (kw == "inputs") {
      out.imply.num_inputs = out.magic.num_inputs = out.revamp.num_inputs =
          field();
      continue;
    }

    switch (out.family) {
      case ProgramFamily::kImply: {
        auto& p = out.imply;
        if (kw == "cells") {
          p.num_cells = field();
        } else if (kw == "zero") {
          p.zero_cell = field();
        } else if (kw == "false" || kw == "imply") {
          ImplyInstr ins;
          ins.kind = kw == "false" ? ImplyInstr::Kind::kFalse
                                   : ImplyInstr::Kind::kImply;
          const std::size_t operands = kw == "false" ? 1 : 2;
          if (t.size() < 1 + operands) in.fail("missing operands");
          if (t.size() > 2 + operands) in.fail("trailing tokens");
          ins.dest = in.u64(t[1], "dest cell");
          if (operands == 2) ins.src = in.u64(t[2], "src cell");
          if (t.size() == 2 + operands)
            ins.def_node = parse_node(in, t[1 + operands]);
          p.instrs.push_back(ins);
        } else if (kw == "output") {
          p.output_cells.push_back(field());
        } else {
          in.fail("unknown directive '" + kw + "'");
        }
        break;
      }
      case ProgramFamily::kMagic: {
        auto& p = out.magic;
        if (kw == "cells") {
          p.num_cells = field();
        } else if (kw == "set" || kw == "nor") {
          MagicInstr ins;
          ins.kind =
              kw == "set" ? MagicInstr::Kind::kSet : MagicInstr::Kind::kNor;
          if (t.size() < 2) in.fail("missing out cell");
          ins.out_cell = in.u64(t[1], "out cell");
          std::size_t k = 2;
          for (; k < t.size() && t[k][0] != '@'; ++k)
            ins.in_cells.push_back(in.u64(t[k], "input cell"));
          if (k < t.size()) ins.node = parse_node(in, t[k++]);
          if (k < t.size()) in.fail("trailing tokens");
          if (ins.kind == MagicInstr::Kind::kNor && ins.in_cells.empty())
            in.fail("nor without inputs");
          if (ins.kind == MagicInstr::Kind::kSet && !ins.in_cells.empty())
            in.fail("set takes no input cells");
          p.instrs.push_back(std::move(ins));
        } else if (kw == "output") {
          const bool is_const = t.size() == 3 && t[1] == "const";
          if (is_const && t[2] != "0" && t[2] != "1")
            in.fail("bad constant output '" + std::string(t[2]) + "'");
          p.output_cells.push_back(is_const ? 0 : field());
          p.output_is_const.push_back(is_const);
          p.const_values.push_back(is_const && t[2] == "1");
        } else {
          in.fail("unknown directive '" + kw + "'");
        }
        break;
      }
      case ProgramFamily::kRevamp: {
        auto& p = out.revamp;
        if (kw == "wordlines") {
          p.wordlines = field();
        } else if (kw == "bitlines") {
          p.bitlines = field();
          if (p.bitlines > kMaxBitlines) in.fail("too many bitlines");
        } else if (kw == "read") {
          RevampInstruction ins;
          ins.kind = RevampInstruction::Kind::kRead;
          ins.wordline = field();
          p.instrs.push_back(std::move(ins));
        } else if (kw == "apply") {
          RevampInstruction ins;
          ins.kind = RevampInstruction::Kind::kApply;
          if (t.size() < 3) in.fail("missing 'apply' operands");
          ins.wordline = in.u64(t[1], "wordline");
          ins.wl = parse_operand(in, t[2]);
          ins.columns.assign(p.bitlines, std::nullopt);
          for (std::size_t k = 3; k < t.size(); ++k) {
            const auto eq = t[k].find('=');
            if (eq == std::string_view::npos)
              in.fail("expected <col>=<operand>");
            const std::size_t col = in.u64(t[k].substr(0, eq), "column");
            if (col >= kMaxBitlines) in.fail("column out of range");
            if (col >= ins.columns.size()) ins.columns.resize(col + 1);
            ins.columns[col] = parse_operand(in, t[k].substr(eq + 1));
          }
          p.instrs.push_back(std::move(ins));
        } else if (kw == "output") {
          if (t.size() != 2) in.fail("bad 'output'");
          p.outputs.push_back(parse_operand(in, t[1]));
        } else {
          in.fail("unknown directive '" + kw + "'");
        }
        break;
      }
    }
  }
  if (!have_header) in.fail("empty stream");
  return out;
}

}  // namespace cim::eda::verify
