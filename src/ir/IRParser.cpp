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

/// Bounds the slot table a text can make the parser build. Allocated
/// code numbers its slots from 0, one per spilled live range.
constexpr int64_t MaxSpillSlots = int64_t(1) << 20;

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

  /// Reports \p Msg at the line of \p T, the token it is about.
  bool failAt(const Token &T, const std::string &Msg) {
    Error = "line " + std::to_string(T.Line + 1) + ": " + Msg;
    return false;
  }
  bool fail(const std::string &Msg) { return failAt(peek(), Msg); }

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
    const Token &NameTok = take();
    if (!expectPunct(':'))
      return false;
    RegClass RC;
    if (!parseRegClass(RC))
      return false;
    if (!expectPunct('['))
      return false;
    if (!at(Token::Kind::IntLit))
      return fail("expected array size");
    const Token &SizeTok = take();
    int64_t Size = SizeTok.IntValue;
    if (Size < 0)
      return failAt(SizeTok, "negative array size");
    if (Size > int64_t(UINT32_MAX))
      return failAt(SizeTok,
                    "array size " + std::to_string(Size) + " out of range");
    if (!expectPunct(']'))
      return false;
    if (M.findArray(NameTok.Text) != ~0u)
      return failAt(NameTok, "duplicate array @" + NameTok.Text);
    M.newArray(NameTok.Text, uint32_t(Size), RC);
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
    SlotClasses.clear();

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
    // A slot no instruction names keeps the int class.
    for (std::optional<RegClass> RC : SlotClasses)
      F->newSpillSlot(RC.value_or(RegClass::Int));
    return expectPunct('}');
  }

  /// Resolves (or, at a definition, creates) the register \p T names.
  bool resolveReg(const Token &T, std::optional<RegClass> DefClass,
                  VRegId &Out) {
    const std::string &Name = T.Text;
    auto It = RegsByName.find(Name);
    if (It != RegsByName.end()) {
      Out = It->second;
      if (DefClass && F->regClass(Out) != *DefClass)
        return failAt(T, "register %" + Name +
                             " redefined with a different class");
      return true;
    }
    if (!DefClass)
      return failAt(T, "use of undefined register %" + Name);
    Out = F->newVReg(*DefClass, Name);
    RegsByName[Name] = Out;
    return true;
  }

  /// Records that the slot \p T names holds class \p RC. Textual spill
  /// code may name slots in any order; the table is built when the
  /// function ends.
  bool noteSpillSlot(const Token &T, RegClass RC) {
    int64_t Slot = T.IntValue;
    if (Slot < 0)
      return failAt(T, "negative spill slot");
    if (Slot >= MaxSpillSlots)
      return failAt(T, "spill slot " + std::to_string(Slot) + " out of range");
    if (SlotClasses.size() <= uint64_t(Slot))
      SlotClasses.resize(Slot + 1);
    if (!SlotClasses[Slot])
      SlotClasses[Slot] = RC;
    if (*SlotClasses[Slot] != RC)
      return failAt(T, "spill slot " + std::to_string(Slot) +
                           " used with two classes");
    return true;
  }

  bool parseInstruction(uint32_t Block) {
    // Optional "%dst:class =" prefix.
    std::optional<VRegId> Def;
    if (at(Token::Kind::Reg)) {
      const Token &DstTok = take();
      if (!expectPunct(':'))
        return false;
      RegClass RC;
      if (!parseRegClass(RC))
        return false;
      if (!expectPunct('='))
        return false;
      VRegId R;
      if (!resolveReg(DstTok, RC, R))
        return false;
      Def = R;
    }

    if (!at(Token::Kind::Ident))
      return fail("expected an opcode");
    const Token &OpTok = take();
    unsigned Op = 0;
    while (Op < NumOpcodes && OpTok.Text != opcodeName(Opcode(Op)))
      ++Op;
    if (Op == NumOpcodes)
      return failAt(OpTok, "unknown opcode '" + OpTok.Text + "'");
    const OpcodeInfo &Info = opcodeInfo(Opcode(Op));
    if (Info.has(OpcodeInfo::Def) != Def.has_value())
      return failAt(OpTok, "opcode '" + OpTok.Text +
                               (Def ? "' does not produce a value"
                                    : "' needs a result"));

    Instruction I;
    I.Op = Opcode(Op);
    I.Ops.resize(Info.NumOps);
    if (Def)
      I.Ops[0] = Operand::reg(*Def);
    if (!parseOperands(Info, I))
      return false;
    F->block(Block).Insts.push_back(std::move(I));
    return true;
  }

  /// Parses what follows the mnemonic by walking \p Info's operands:
  /// separated by ',', an array's index in brackets.
  bool parseOperands(const OpcodeInfo &Info, Instruction &I) {
    if (Info.has(OpcodeInfo::Cmp)) {
      if (!at(Token::Kind::Ident))
        return fail(std::string("expected comparison kind after '") +
                    Info.Name + "'");
      const Token &CmpTok = take();
      unsigned K = 0;
      while (K < NumCmpKinds && CmpTok.Text != cmpKindName(CmpKind(K)))
        ++K;
      if (K == NumCmpKinds)
        return failAt(CmpTok, "unknown comparison kind");
      I.Cmp = CmpKind(K);
    }
    const unsigned First = Info.has(OpcodeInfo::Def);
    for (unsigned K = First; K < Info.NumOps; ++K) {
      if (K + 1 == Info.NumOps && Info.has(OpcodeInfo::OptionalLast) &&
          !at(Token::Kind::Reg)) {
        I.Ops.pop_back();
        break;
      }
      bool Subscript = K > 0 && Info.Ops[K - 1].Kind == SyntaxKind::Array;
      if (K > First && !expectPunct(Subscript ? '[' : ','))
        return false;
      if (!parseOperand(Info.Ops[K], I) || (Subscript && !expectPunct(']')))
        return false;
    }
    return true;
  }

  /// Parses one operand written as \p S says into its place in \p I.
  bool parseOperand(const OperandSpec &S, Instruction &I) {
    Operand &O = I.Ops[S.Index];
    switch (S.Kind) {
    case SyntaxKind::Reg: {
      if (!at(Token::Kind::Reg))
        return fail("expected register operand");
      VRegId R;
      if (!resolveReg(take(), std::nullopt, R))
        return false;
      O = Operand::reg(R);
      return true;
    }
    case SyntaxKind::IntImm:
    case SyntaxKind::Slot: {
      if (!at(Token::Kind::IntLit))
        return fail("expected integer literal");
      const Token &T = take();
      O = Operand::intImm(T.IntValue);
      // A slot's class is that of operand 0, which its row reads first.
      return S.Kind == SyntaxKind::IntImm ||
             noteSpillSlot(T, F->regClass(I.Ops[0].Reg));
    }
    case SyntaxKind::FloatImm:
      if (at(Token::Kind::FloatLit))
        O = Operand::floatImm(take().FloatValue);
      else if (at(Token::Kind::IntLit))
        O = Operand::floatImm(double(take().IntValue));
      else
        return fail("expected floating literal");
      return true;
    case SyntaxKind::Array: {
      if (!at(Token::Kind::Array))
        return fail("expected array operand");
      const Token &T = take();
      uint32_t A = M.findArray(T.Text);
      if (A == ~0u)
        return failAt(T, "reference to unknown array @" + T.Text);
      O = Operand::array(A);
      return true;
    }
    case SyntaxKind::Block: {
      if (!at(Token::Kind::Ident))
        return fail("expected block name operand");
      const Token &T = take();
      auto It = BlocksByName.find(T.Text);
      if (It == BlocksByName.end())
        return failAt(T, "reference to unknown block '" + T.Text + "'");
      O = Operand::block(It->second);
      return true;
    }
    }
    return false;
  }

  std::vector<Token> Tokens;
  Module &M;
  std::string &Error;
  size_t Pos = 0;

  Function *F = nullptr;
  std::map<std::string, VRegId> RegsByName;
  std::map<std::string, uint32_t> BlocksByName;
  std::vector<std::optional<RegClass>> SlotClasses;
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
