//===- ir/IRParser.cpp - Textual IR input ---------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

using namespace ra;

namespace {

/// Bounds the slot table a text can make the parser build. Allocated
/// code numbers its slots from 0, one per spilled live range.
constexpr int64_t MaxSpillSlots = int64_t(1) << 20;

/// One token, 24 bytes. A name is a view of the source text, which
/// outlives the token vector: both live only inside parseModule.
struct Token {
  enum class Kind : uint8_t {
    Ident,   // bare identifier (keywords, opcodes, block names)
    Reg,     // %name
    Array,   // @name
    IntLit,  // 123, -4
    FloatLit,// 1.5, -2e3
    Punct,   // one of { } : = , [ ]
    End,
  };
  /// A name's first byte (after its sigil), or the punctuation byte.
  const char *Begin = nullptr;
  union {
    size_t Len = 0;    // Ident, Reg, Array: the name's length
    int64_t IntValue;  // IntLit
    double FloatValue; // FloatLit
  };
  uint32_t Line = 0;
  Kind K = Kind::End;

  std::string_view text() const { return {Begin, Len}; }
  char punct() const { return *Begin; }
};
static_assert(sizeof(Token) <= 24, "tokens are the parser's largest buffer");

/// Byte classes of the "C" locale: a byte of 0x80 or more is in none.
enum : uint8_t { Space = 1, IdentStart = 2, IdentChar = 4, NumStart = 8 };

constexpr std::array<uint8_t, 256> ByteClass = [] {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[uint8_t(C)] = Space;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = IdentStart | IdentChar;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = IdentChar | NumStart;
  T['_'] = IdentStart | IdentChar;
  T['.'] = IdentChar;
  T['-'] = T['+'] = NumStart;
  return T;
}();

bool is(char C, uint8_t Class) { return ByteClass[uint8_t(C)] & Class; }

/// Splits the text into tokens. It scans with a pointer and stops at the
/// NUL that ends every std::string, which no byte class holds; a NUL
/// before the end is an unexpected character.
class Lexer {
public:
  Lexer(const std::string &Text, std::string &Error)
      : Cur(Text.c_str()), End(Text.c_str() + Text.size()), Error(Error) {}

  /// Tokenizes the whole input. Returns false on a lexical error.
  bool run(std::vector<Token> &Out) {
    // Printed IR has more than four bytes a token (4.2 to 5.9 over the
    // fig5 and mega texts), so this vector does not grow on it.
    Out.reserve((End - Cur) / 4 + 1);
    while (true) {
      skipSpaceAndComments();
      if (Cur == End)
        break;
      if (!lexOne(Out))
        return false;
    }
    Out.push_back(token(Token::Kind::End, nullptr));
    return true;
  }

private:
  Token token(Token::Kind K, const char *Begin) const {
    Token T;
    T.K = K;
    T.Begin = Begin;
    T.Line = Line;
    return T;
  }

  void skipSpaceAndComments() {
    while (true) {
      if (*Cur == '\n')
        ++Line;
      if (is(*Cur, Space))
        ++Cur;
      else if (*Cur == ';' || (Cur[0] == '/' && Cur[1] == '/'))
        Cur = std::find(Cur, End, '\n');
      else
        return;
    }
  }

  /// Moves past identifier bytes; returns how many there were.
  size_t scanName() {
    const char *Start = Cur;
    while (is(*Cur, IdentChar))
      ++Cur;
    return Cur - Start;
  }

  bool lexOne(std::vector<Token> &Out) {
    const char C = *Cur;
    switch (C) {
    case '{': case '}': case ':': case '=': case ',': case '[': case ']':
      Out.push_back(token(Token::Kind::Punct, Cur++));
      return true;
    case '%':
    case '@': {
      Token T = token(C == '%' ? Token::Kind::Reg : Token::Kind::Array, ++Cur);
      T.Len = scanName();
      if (T.Len == 0) {
        Error = diag("empty register/array name");
        return false;
      }
      Out.push_back(T);
      return true;
    }
    }
    if (is(C, NumStart))
      return lexNumber(Out);
    if (is(C, IdentStart)) {
      Token T = token(Token::Kind::Ident, Cur);
      T.Len = scanName();
      Out.push_back(T);
      return true;
    }
    Error = diag(std::string("unexpected character '") + C + "'");
    return false;
  }

  bool lexNumber(std::vector<Token> &Out) {
    const char *Lit = Cur++;
    bool IsFloat = false;
    while (true) {
      char D = *Cur;
      if (D >= '0' && D <= '9') {
        ++Cur;
      } else if (D == '.' || D == 'e' || D == 'E') {
        IsFloat = true;
        ++Cur;
        if ((*Cur == '+' || *Cur == '-') && (D == 'e' || D == 'E'))
          ++Cur;
      } else {
        break;
      }
    }
    // The whole literal must convert: no bare sign, no trailing
    // "1.2.3" tail. An integer must fit in int64_t and a float must not
    // overflow; a float that underflows to a subnormal is kept, since
    // the printer writes subnormals. The literal is converted in place:
    // the scan stops at a byte that neither strtoll (base 10) nor strtod
    // reads as part of a literal that starts with a digit or a sign and
    // has no 'x' after its leading '0', so both stop where they would on
    // a copy of the literal.
    Token T = token(IsFloat ? Token::Kind::FloatLit : Token::Kind::IntLit, Lit);
    char *ConvEnd = nullptr;
    errno = 0;
    if (IsFloat)
      T.FloatValue = std::strtod(Lit, &ConvEnd);
    else
      T.IntValue = std::strtoll(Lit, &ConvEnd, 10);
    if (ConvEnd != Cur) {
      Error = diag("malformed number '" + std::string(Lit, Cur) + "'");
      return false;
    }
    if (errno == ERANGE && (!IsFloat || std::isinf(T.FloatValue))) {
      Error = diag(std::string(IsFloat ? "float" : "integer") + " literal '" +
                   std::string(Lit, Cur) + "' out of range");
      return false;
    }
    Out.push_back(T);
    return true;
  }

  /// \p Msg at the current line, where the token being lexed starts.
  std::string diag(const std::string &Msg) const {
    return "line " + std::to_string(Line + 1) + ": " + Msg;
  }

  const char *Cur;
  const char *const End;
  std::string &Error;
  uint32_t Line = 0;
};

/// An open-addressing hash table from names, viewed in text that
/// outlives it, to ids.
class NameTable {
public:
  /// The id \p Name maps to, or nullptr.
  const uint32_t *find(std::string_view Name) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = hash(Name);; ++I) {
      const Slot &S = Slots[I & (Slots.size() - 1)];
      if (!S.Name.data())
        return nullptr;
      if (S.Name == Name)
        return &S.Id;
    }
  }

  /// Maps \p Name, which must not be in the table, to \p Id.
  void insert(std::string_view Name, uint32_t Id) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    place({Name, Id});
    ++Count;
  }

  /// Empties the table and sizes it to take \p MaxNames without growing.
  void reset(size_t MaxNames) {
    Slots.assign(std::bit_ceil(2 * MaxNames + 2), Slot());
    Count = 0;
  }

private:
  struct Slot {
    std::string_view Name; ///< Empty slot: a null data pointer.
    uint32_t Id = 0;
  };

  static size_t hash(std::string_view Name) {
    uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
    for (char C : Name)
      H = (H ^ uint8_t(C)) * 0x100000001b3ull;
    return H ^ (H >> 32);
  }

  void place(Slot New) {
    for (size_t I = hash(New.Name);; ++I) {
      Slot &S = Slots[I & (Slots.size() - 1)];
      if (!S.Name.data()) {
        S = New;
        return;
      }
    }
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(std::max<size_t>(64, 2 * Old.size()), Slot());
    for (const Slot &S : Old)
      if (S.Name.data())
        place(S);
  }

  std::vector<Slot> Slots; ///< A power of two of them, at most half full.
  size_t Count = 0;
};

/// The mnemonics of the table in Opcode.cpp and the comparison kinds,
/// each mapped to its enum value; built once.
const NameTable &opcodesByName() {
  static const NameTable Table = [] {
    NameTable T;
    for (unsigned Op = 0; Op < NumOpcodes; ++Op)
      T.insert(opcodeName(Opcode(Op)), Op);
    return T;
  }();
  return Table;
}
const NameTable &cmpKindsByName() {
  static const NameTable Table = [] {
    NameTable T;
    for (unsigned K = 0; K < NumCmpKinds; ++K)
      T.insert(cmpKindName(CmpKind(K)), K);
    return T;
  }();
  return Table;
}

std::string str(std::string_view S) { return std::string(S); }

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
    return at(Token::Kind::Ident) && peek().text() == S;
  }
  bool atPunct(char C) const {
    return at(Token::Kind::Punct) && peek().punct() == C;
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
    std::optional<RegClass> RC = parseRegClass();
    if (!RC)
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
    if (M.findArray(NameTok.text()) != ~0u)
      return failAt(NameTok, "duplicate array @" + str(NameTok.text()));
    M.newArray(str(NameTok.text()), uint32_t(Size), *RC);
    return true;
  }

  std::optional<RegClass> parseRegClass() {
    for (RegClass RC : {RegClass::Int, RegClass::Float})
      if (atIdent(regClassName(RC))) {
        take();
        return RC;
      }
    fail("expected register class 'int' or 'flt'");
    return std::nullopt;
  }

  bool parseFunction() {
    take(); // 'func'
    if (!at(Token::Kind::Array))
      return fail("expected function name after 'func'");
    std::string Name = str(take().text());
    if (!expectPunct('{'))
      return false;

    F = &M.newFunction(Name);
    BlocksByName.reset(0);
    SlotClasses.clear();

    // Pre-scan: declare blocks in order so the first one is the entry and
    // forward branch references resolve, and count the "%r :" pairs, of
    // which every register definition is one.
    size_t Defs = 0;
    for (size_t I = Pos, Depth = 1; I < Tokens.size(); ++I) {
      const Token &T = Tokens[I];
      Defs += T.K == Token::Kind::Reg && Tokens[I + 1].K == Token::Kind::Punct &&
              Tokens[I + 1].punct() == ':';
      if (T.K == Token::Kind::Punct && T.punct() == '{')
        ++Depth;
      if (T.K == Token::Kind::Punct && T.punct() == '}' && --Depth == 0)
        break;
      if (T.K == Token::Kind::Ident && T.text() == "block" &&
          Tokens[I + 1].K == Token::Kind::Ident &&
          Tokens[I + 2].K == Token::Kind::Punct &&
          Tokens[I + 2].punct() == ':') {
        std::string_view BName = Tokens[I + 1].text();
        if (BlocksByName.find(BName)) {
          Pos = I;
          return fail("duplicate block '" + str(BName) + "'");
        }
        BlocksByName.insert(BName, F->newBlock(str(BName)));
      }
    }
    if (F->numBlocks() == 0)
      return fail("function @" + Name + " has no blocks");
    RegsByName.reset(Defs);

    uint32_t CurBlock = ~0u;
    while (!atPunct('}')) {
      if (at(Token::Kind::End))
        return fail("unexpected end of input inside function");
      if (atIdent("block")) {
        take();
        if (!at(Token::Kind::Ident))
          return fail("expected block name");
        const uint32_t *B = BlocksByName.find(take().text());
        CurBlock = B ? *B : 0; // an unknown name fails at its ':' next
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
    std::string_view Name = T.text();
    if (const VRegId *Known = RegsByName.find(Name)) {
      Out = *Known;
      if (DefClass && F->regClass(Out) != *DefClass)
        return failAt(T, "register %" + str(Name) +
                             " redefined with a different class");
      return true;
    }
    if (!DefClass)
      return failAt(T, "use of undefined register %" + str(Name));
    Out = F->newVReg(*DefClass, str(Name));
    RegsByName.insert(Name, Out);
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
      std::optional<RegClass> RC = parseRegClass();
      if (!RC)
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
    const uint32_t *Op = opcodesByName().find(OpTok.text());
    if (!Op)
      return failAt(OpTok, "unknown opcode '" + str(OpTok.text()) + "'");
    const OpcodeInfo &Info = opcodeInfo(Opcode(*Op));
    if (Info.has(OpcodeInfo::Def) != Def.has_value())
      return failAt(OpTok, "opcode '" + str(OpTok.text()) +
                               (Def ? "' does not produce a value"
                                    : "' needs a result"));

    Instruction I;
    I.Op = Opcode(*Op);
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
      const uint32_t *K = cmpKindsByName().find(CmpTok.text());
      if (!K)
        return failAt(CmpTok, "unknown comparison kind");
      I.Cmp = CmpKind(*K);
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
      uint32_t A = M.findArray(T.text());
      if (A == ~0u)
        return failAt(T, "reference to unknown array @" + str(T.text()));
      O = Operand::array(A);
      return true;
    }
    case SyntaxKind::Block: {
      if (!at(Token::Kind::Ident))
        return fail("expected block name operand");
      const Token &T = take();
      const uint32_t *B = BlocksByName.find(T.text());
      if (!B)
        return failAt(T, "reference to unknown block '" + str(T.text()) + "'");
      O = Operand::block(*B);
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
  NameTable RegsByName;
  NameTable BlocksByName;
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
