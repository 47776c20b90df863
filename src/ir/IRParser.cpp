//===- ir/IRParser.cpp - Textual IR input ---------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/Trace.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

using namespace ra;

namespace {

struct Token {
  enum class Kind {
    Ident,   // bare identifier (keywords, opcodes, block names)
    Reg,     // %name
    Array,   // @name
    IntLit,  // 123, -4
    FloatLit,// 1.5, -2e3
    Punct,   // one of { } : = , [ ]
    End,
  };
  Kind K = Kind::End;
  std::string Text;   // identifier / register / array name (no sigil)
  int64_t IntValue = 0;
  double FloatValue = 0;
  char Punct = 0;
  unsigned Line = 0;
};

class Lexer {
public:
  Lexer(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  /// Tokenizes the whole input. Returns false on a lexical error.
  bool run(std::vector<Token> &Out) {
    while (true) {
      skipSpaceAndComments();
      if (Pos >= Text.size())
        break;
      if (!lexOne(Out))
        return false;
    }
    Out.push_back({Token::Kind::End, "", 0, 0, 0, Line});
    return true;
  }

private:
  void skipSpaceAndComments() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == ';' ||
                 (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/')) {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  bool lexOne(std::vector<Token> &Out) {
    char C = Text[Pos];
    unsigned TokLine = Line;

    auto IsIdentChar = [](char Ch) {
      return std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_' ||
             Ch == '.';
    };

    if (C == '%' || C == '@') {
      ++Pos;
      std::string Name;
      while (Pos < Text.size() && IsIdentChar(Text[Pos]))
        Name += Text[Pos++];
      if (Name.empty()) {
        Error = diag(TokLine, "empty register/array name");
        return false;
      }
      Out.push_back({C == '%' ? Token::Kind::Reg : Token::Kind::Array, Name, 0,
                     0, 0, TokLine});
      return true;
    }

    if (std::isdigit(static_cast<unsigned char>(C)) || C == '-' || C == '+') {
      size_t Start = Pos;
      ++Pos;
      bool IsFloat = false;
      while (Pos < Text.size()) {
        char D = Text[Pos];
        if (std::isdigit(static_cast<unsigned char>(D))) {
          ++Pos;
        } else if (D == '.' || D == 'e' || D == 'E') {
          IsFloat = true;
          ++Pos;
          if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-') &&
              (D == 'e' || D == 'E'))
            ++Pos;
        } else {
          break;
        }
      }
      // The whole literal must convert: no bare sign, no trailing
      // "1.2.3" tail. An integer must fit in int64_t and a float must not
      // overflow; a float that underflows to a subnormal is kept, since
      // the printer writes subnormals.
      std::string Lit = Text.substr(Start, Pos - Start);
      Token T;
      T.Line = TokLine;
      char *End = nullptr;
      errno = 0;
      if (IsFloat) {
        T.K = Token::Kind::FloatLit;
        T.FloatValue = std::strtod(Lit.c_str(), &End);
      } else {
        T.K = Token::Kind::IntLit;
        T.IntValue = std::strtoll(Lit.c_str(), &End, 10);
      }
      if (End != Lit.c_str() + Lit.size()) {
        Error = diag(TokLine, "malformed number '" + Lit + "'");
        return false;
      }
      if (errno == ERANGE && (!IsFloat || std::isinf(T.FloatValue))) {
        Error = diag(TokLine, std::string(IsFloat ? "float" : "integer") +
                                  " literal '" + Lit + "' out of range");
        return false;
      }
      Out.push_back(T);
      return true;
    }

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Name;
      while (Pos < Text.size() && IsIdentChar(Text[Pos]))
        Name += Text[Pos++];
      // Float literals like "inf"/"nan" never appear; identifiers only.
      Out.push_back({Token::Kind::Ident, Name, 0, 0, 0, TokLine});
      return true;
    }

    if (std::string("{}:=,[]").find(C) != std::string::npos) {
      ++Pos;
      Out.push_back({Token::Kind::Punct, "", 0, 0, C, TokLine});
      return true;
    }

    Error = diag(TokLine, std::string("unexpected character '") + C + "'");
    return false;
  }

  static std::string diag(unsigned Line, const std::string &Msg) {
    return "line " + std::to_string(Line + 1) + ": " + Msg;
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
  unsigned Line = 0;
};

/// Recursive-descent parser over the token stream.
class Parser {
public:
  Parser(std::vector<Token> Tokens, Module &M, std::string &Error)
      : Tokens(std::move(Tokens)), M(M), Error(Error) {}

  bool run() {
    if (!expectIdent("module") || !expectPunct('{'))
      return false;
    while (!atPunct('}')) {
      if (at(Token::Kind::End))
        return fail("unexpected end of input inside module");
      if (atIdent("array")) {
        if (!parseArray())
          return false;
      } else if (atIdent("func")) {
        if (!parseFunction())
          return false;
      } else {
        return fail("expected 'array' or 'func'");
      }
    }
    return expectPunct('}');
  }

private:
  //===--------------------------------------------------------------===//
  // Token helpers.
  //===--------------------------------------------------------------===//

  const Token &peek(unsigned Ahead = 0) const {
    size_t Idx = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[Idx];
  }
  const Token &take() { return Tokens[std::min(Pos++, Tokens.size() - 1)]; }

  bool at(Token::Kind K) const { return peek().K == K; }
  bool atIdent(const char *S) const {
    return at(Token::Kind::Ident) && peek().Text == S;
  }
  bool atPunct(char C) const {
    return at(Token::Kind::Punct) && peek().Punct == C;
  }

  bool fail(const std::string &Msg) {
    Error = "line " + std::to_string(peek().Line + 1) + ": " + Msg;
    return false;
  }

  bool expectIdent(const char *S) {
    if (!atIdent(S))
      return fail(std::string("expected '") + S + "'");
    take();
    return true;
  }

  bool expectPunct(char C) {
    if (!atPunct(C))
      return fail(std::string("expected '") + C + "'");
    take();
    return true;
  }

  //===--------------------------------------------------------------===//
  // Grammar productions.
  //===--------------------------------------------------------------===//

  bool parseArray() {
    take(); // 'array'
    if (!at(Token::Kind::Array))
      return fail("expected array name after 'array'");
    std::string Name = take().Text;
    if (!expectPunct(':'))
      return false;
    RegClass RC;
    if (!parseRegClass(RC))
      return false;
    if (!expectPunct('['))
      return false;
    if (!at(Token::Kind::IntLit))
      return fail("expected array size");
    int64_t Size = take().IntValue;
    if (Size < 0)
      return fail("negative array size");
    if (Size > int64_t(UINT32_MAX))
      return fail("array size " + std::to_string(Size) + " out of range");
    if (!expectPunct(']'))
      return false;
    if (M.findArray(Name) != ~0u)
      return fail("duplicate array @" + Name);
    M.newArray(Name, uint32_t(Size), RC);
    return true;
  }

  bool parseRegClass(RegClass &RC) {
    if (atIdent("int")) {
      RC = RegClass::Int;
      take();
      return true;
    }
    if (atIdent("flt")) {
      RC = RegClass::Float;
      take();
      return true;
    }
    return fail("expected register class 'int' or 'flt'");
  }

  bool parseFunction() {
    take(); // 'func'
    if (!at(Token::Kind::Array))
      return fail("expected function name after 'func'");
    std::string Name = take().Text;
    if (!expectPunct('{'))
      return false;

    F = &M.newFunction(Name);
    RegsByName.clear();
    BlocksByName.clear();

    // Pre-scan: declare blocks in order so the first one is the entry and
    // forward branch references resolve.
    for (size_t I = Pos, Depth = 1; I < Tokens.size(); ++I) {
      const Token &T = Tokens[I];
      if (T.K == Token::Kind::Punct && T.Punct == '{')
        ++Depth;
      if (T.K == Token::Kind::Punct && T.Punct == '}' && --Depth == 0)
        break;
      if (T.K == Token::Kind::Ident && T.Text == "block" &&
          Tokens[I + 1].K == Token::Kind::Ident &&
          Tokens[I + 2].K == Token::Kind::Punct && Tokens[I + 2].Punct == ':') {
        const std::string &BName = Tokens[I + 1].Text;
        if (BlocksByName.count(BName)) {
          Pos = I;
          return fail("duplicate block '" + BName + "'");
        }
        BlocksByName[BName] = F->newBlock(BName);
      }
    }
    if (F->numBlocks() == 0)
      return fail("function @" + Name + " has no blocks");

    uint32_t CurBlock = ~0u;
    while (!atPunct('}')) {
      if (at(Token::Kind::End))
        return fail("unexpected end of input inside function");
      if (atIdent("block")) {
        take();
        if (!at(Token::Kind::Ident))
          return fail("expected block name");
        CurBlock = BlocksByName[take().Text];
        if (!expectPunct(':'))
          return false;
        continue;
      }
      if (CurBlock == ~0u)
        return fail("instruction outside any block");
      if (!parseInstruction(CurBlock))
        return false;
    }
    return expectPunct('}');
  }

  /// Resolves (or, at a definition, creates) a register by name.
  bool resolveReg(const std::string &Name, std::optional<RegClass> DefClass,
                  VRegId &Out) {
    auto It = RegsByName.find(Name);
    if (It != RegsByName.end()) {
      Out = It->second;
      if (DefClass && F->regClass(Out) != *DefClass)
        return fail("register %" + Name + " redefined with a different class");
      return true;
    }
    if (!DefClass)
      return fail("use of undefined register %" + Name);
    Out = F->newVReg(*DefClass, Name);
    RegsByName[Name] = Out;
    return true;
  }

  bool parseUseReg(VRegId &Out) {
    if (!at(Token::Kind::Reg))
      return fail("expected register operand");
    return resolveReg(take().Text, std::nullopt, Out);
  }

  bool parseBlockRef(uint32_t &Out) {
    if (!at(Token::Kind::Ident))
      return fail("expected block name operand");
    std::string Name = take().Text;
    auto It = BlocksByName.find(Name);
    if (It == BlocksByName.end())
      return fail("reference to unknown block '" + Name + "'");
    Out = It->second;
    return true;
  }

  bool parseIntLit(int64_t &Out) {
    if (!at(Token::Kind::IntLit))
      return fail("expected integer literal");
    Out = take().IntValue;
    return true;
  }

  bool parseArrayRef(uint32_t &Out) {
    if (!at(Token::Kind::Array))
      return fail("expected array operand");
    std::string Name = take().Text;
    Out = M.findArray(Name);
    if (Out == ~0u)
      return fail("reference to unknown array @" + Name);
    return true;
  }

  static std::optional<Opcode> opcodeByName(const std::string &S) {
    static const std::pair<const char *, Opcode> Names[] = {
        {"movi", Opcode::MovI},       {"movf", Opcode::MovF},
        {"copy", Opcode::Copy},       {"add", Opcode::Add},
        {"sub", Opcode::Sub},         {"mul", Opcode::Mul},
        {"div", Opcode::Div},         {"rem", Opcode::Rem},
        {"addi", Opcode::AddI},       {"muli", Opcode::MulI},
        {"fadd", Opcode::FAdd},       {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul},       {"fdiv", Opcode::FDiv},
        {"fneg", Opcode::FNeg},       {"fabs", Opcode::FAbs},
        {"fsqrt", Opcode::FSqrt},     {"itof", Opcode::IToF},
        {"ftoi", Opcode::FToI},       {"load", Opcode::Load},
        {"fload", Opcode::FLoad},     {"store", Opcode::Store},
        {"fstore", Opcode::FStore},   {"spill.ld", Opcode::SpillLd},
        {"spill.st", Opcode::SpillSt},{"br", Opcode::Br},
        {"jmp", Opcode::Jmp},         {"ret", Opcode::Ret},
    };
    for (const auto &[Name, Op] : Names)
      if (S == Name)
        return Op;
    return std::nullopt;
  }

  static std::optional<CmpKind> cmpByName(const std::string &S) {
    static const std::pair<const char *, CmpKind> Names[] = {
        {"eq", CmpKind::EQ}, {"ne", CmpKind::NE}, {"lt", CmpKind::LT},
        {"le", CmpKind::LE}, {"gt", CmpKind::GT}, {"ge", CmpKind::GE},
    };
    for (const auto &[Name, K] : Names)
      if (S == Name)
        return K;
    return std::nullopt;
  }

  /// Grows the function's spill-slot table so that \p Slot exists with
  /// class \p RC (textual spill code may name slots in any order).
  bool ensureSpillSlot(int64_t Slot, RegClass RC) {
    if (Slot < 0)
      return fail("negative spill slot");
    while (F->numSpillSlots() <= unsigned(Slot))
      F->newSpillSlot(RC);
    if (F->spillSlotClass(unsigned(Slot)) != RC)
      return fail("spill slot " + std::to_string(Slot) +
                  " used with two classes");
    return true;
  }

  bool parseInstruction(uint32_t Block) {
    // Optional "%dst:class =" prefix.
    std::optional<VRegId> Def;
    if (at(Token::Kind::Reg)) {
      std::string DstName = take().Text;
      if (!expectPunct(':'))
        return false;
      RegClass RC;
      if (!parseRegClass(RC))
        return false;
      if (!expectPunct('='))
        return false;
      VRegId R;
      if (!resolveReg(DstName, RC, R))
        return false;
      Def = R;
    }

    if (!at(Token::Kind::Ident))
      return fail("expected an opcode");
    std::string OpName = take().Text;
    std::optional<Opcode> OpOrNone = opcodeByName(OpName);
    if (!OpOrNone)
      return fail("unknown opcode '" + OpName + "'");
    Opcode Op = *OpOrNone;

    if (opcodeHasDef(Op) != Def.has_value())
      return fail(std::string("opcode '") + OpName +
                  (Def ? "' does not produce a value" : "' needs a result"));

    Instruction I;
    I.Op = Op;
    if (Def)
      I.Ops.push_back(Operand::reg(*Def));
    if (!parseOperands(I))
      return false;
    F->block(Block).Insts.push_back(std::move(I));
    return true;
  }

  bool parseOperands(Instruction &I) {
    auto UseReg = [&](void) -> bool {
      VRegId R;
      if (!parseUseReg(R))
        return false;
      I.Ops.push_back(Operand::reg(R));
      return true;
    };
    auto Comma = [&]() { return expectPunct(','); };

    switch (I.Op) {
    case Opcode::MovI: {
      int64_t V;
      if (!parseIntLit(V))
        return false;
      I.Ops.push_back(Operand::intImm(V));
      return true;
    }
    case Opcode::MovF: {
      if (at(Token::Kind::FloatLit)) {
        I.Ops.push_back(Operand::floatImm(take().FloatValue));
        return true;
      }
      if (at(Token::Kind::IntLit)) {
        I.Ops.push_back(Operand::floatImm(double(take().IntValue)));
        return true;
      }
      return fail("expected floating literal");
    }
    case Opcode::Copy:
    case Opcode::FNeg:
    case Opcode::FAbs:
    case Opcode::FSqrt:
    case Opcode::IToF:
    case Opcode::FToI:
      return UseReg();
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      return UseReg() && Comma() && UseReg();
    case Opcode::AddI:
    case Opcode::MulI: {
      if (!UseReg() || !Comma())
        return false;
      int64_t V;
      if (!parseIntLit(V))
        return false;
      I.Ops.push_back(Operand::intImm(V));
      return true;
    }
    case Opcode::Load:
    case Opcode::FLoad: {
      uint32_t Arr;
      VRegId Idx;
      if (!parseArrayRef(Arr) || !expectPunct('[') || !parseUseReg(Idx) ||
          !expectPunct(']'))
        return false;
      I.Ops.push_back(Operand::array(Arr));
      I.Ops.push_back(Operand::reg(Idx));
      return true;
    }
    case Opcode::Store:
    case Opcode::FStore: {
      // Syntax: store @arr[%idx], %value — but operand order is
      // (value, array, index).
      uint32_t Arr;
      VRegId Idx, Val;
      if (!parseArrayRef(Arr) || !expectPunct('[') || !parseUseReg(Idx) ||
          !expectPunct(']') || !Comma() || !parseUseReg(Val))
        return false;
      I.Ops.push_back(Operand::reg(Val));
      I.Ops.push_back(Operand::array(Arr));
      I.Ops.push_back(Operand::reg(Idx));
      return true;
    }
    case Opcode::SpillLd: {
      int64_t Slot;
      if (!parseIntLit(Slot))
        return false;
      if (!ensureSpillSlot(Slot, F->regClass(I.defReg())))
        return false;
      I.Ops.push_back(Operand::intImm(Slot));
      return true;
    }
    case Opcode::SpillSt: {
      int64_t Slot;
      VRegId Val;
      if (!parseIntLit(Slot) || !Comma() || !parseUseReg(Val))
        return false;
      if (!ensureSpillSlot(Slot, F->regClass(Val)))
        return false;
      I.Ops.push_back(Operand::reg(Val));
      I.Ops.push_back(Operand::intImm(Slot));
      return true;
    }
    case Opcode::Br: {
      if (!at(Token::Kind::Ident))
        return fail("expected comparison kind after 'br'");
      std::optional<CmpKind> K = cmpByName(take().Text);
      if (!K)
        return fail("unknown comparison kind");
      I.Cmp = *K;
      uint32_t T, E;
      if (!UseReg() || !Comma() || !UseReg() || !Comma() ||
          !parseBlockRef(T) || !Comma() || !parseBlockRef(E))
        return false;
      I.Ops.push_back(Operand::block(T));
      I.Ops.push_back(Operand::block(E));
      return true;
    }
    case Opcode::Jmp: {
      uint32_t T;
      if (!parseBlockRef(T))
        return false;
      I.Ops.push_back(Operand::block(T));
      return true;
    }
    case Opcode::Ret: {
      if (at(Token::Kind::Reg))
        return UseReg();
      return true;
    }
    }
    return fail("unhandled opcode");
  }

  std::vector<Token> Tokens;
  Module &M;
  std::string &Error;
  size_t Pos = 0;

  Function *F = nullptr;
  std::map<std::string, VRegId> RegsByName;
  std::map<std::string, uint32_t> BlocksByName;
};

} // namespace

bool ra::parseModule(const std::string &Text, Module &M, std::string &Error) {
  RA_TRACE_SPAN("Parse", "ir");
  std::vector<Token> Tokens;
  Lexer L(Text, Error);
  if (!L.run(Tokens))
    return false;
  Parser P(std::move(Tokens), M, Error);
  return P.run();
}
