//===- tests/NegativeParseTest.cpp - malformed-input diagnostics ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Table-driven negative paths for the textual-IR front end: every
// malformed input must be rejected with the exact "line N: message"
// diagnostic, inputs that parse but break structural invariants must
// draw exactly the verifier messages listed, in order, and inputs the
// verifier must accept draw none. Pinning the full strings keeps
// the diagnostics (which rac prints to users and ralfuzz reproducers
// rely on) from silently regressing.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <string_view>

using namespace ra;
using namespace std::string_view_literals;

namespace {

struct ParseCase {
  const char *Name;
  std::string_view Input; ///< may hold a NUL byte
  std::string_view ExpectedError; ///< exact "line N: message"
};

// Without a printer gtest names each case by the raw bytes of its
// pointers, which change from run to run under address randomization.
void PrintTo(const ParseCase &C, std::ostream *OS) { *OS << C.Name; }

const ParseCase ParseCases[] = {
    {"MissingModuleKeyword", "modul {\n}\n", "line 1: expected 'module'"},
    {"UnexpectedCharacter", "module { $ }\n",
     "line 1: unexpected character '$'"},
    {"StrayTopLevelIdent", "module {\n  gadget\n}\n",
     "line 2: expected 'array' or 'func'"},
    {"NegativeArraySize", "module {\n  array @a : int[-4]\n}\n",
     "line 2: negative array size"},
    {"ArraySizePastUint32", "module {\n  array @x : int[4294967298]\n}\n",
     "line 2: array size 4294967298 out of range"},
    {"BareSign",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = movi -\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: malformed number '-'"},
    {"IntegerPastInt64",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = movi 99999999999999999999999\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: integer literal '99999999999999999999999' out of range"},
    {"FloatWithTwoPoints",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:flt = movf 1.2.3\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: malformed number '1.2.3'"},
    {"FloatOverflow",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:flt = movf 1e999\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: float literal '1e999' out of range"},
    {"BadRegisterClass", "module {\n  array @a : bool[4]\n}\n",
     "line 2: expected register class 'int' or 'flt'"},
    {"DuplicateArray",
     "module {\n  array @a : int[4]\n  array @a : int[4]\n}\n",
     "line 3: duplicate array @a"},
    {"FunctionWithoutBlocks", "module {\n  func @f {\n  }\n}\n",
     "line 3: function @f has no blocks"},
    {"UseOfUndefinedRegister",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = addi %y, 1\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: use of undefined register %y"},
    {"ReturnOfUndefinedRegister",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     "line 4: use of undefined register %y"},
    {"UnknownOpcode",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = frobnicate 1\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: unknown opcode 'frobnicate'"},
    {"RegisterClassRedefinition",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = movi 0\n"
     "    %x:flt = movf 0.5\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 5: register %x redefined with a different class"},
    {"BranchToUnknownBlock",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    jmp nowhere\n"
     "  }\n"
     "}\n",
     "line 4: reference to unknown block 'nowhere'"},
    {"UnknownArray",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %i:int = movi 0\n"
     "    %x:int = load @ghost[%i]\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 5: reference to unknown array @ghost"},
    {"SpillSlotWithTwoClasses",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %i:int = movi 0\n"
     "    %x:flt = movf 0.5\n"
     "    spill.st %x, 2\n"
     "    spill.st %i, 2\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 7: spill slot 2 used with two classes"},
    {"SpillSlotPastTheBound",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %i:int = movi 0\n"
     "    spill.st %i, 9223372036854775807\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 5: spill slot 9223372036854775807 out of range"},
    // The lexer reads bytes in the "C" locale: a byte of 0x80 or more
    // (here UTF-8 for 'e' with an acute accent) is in no identifier.
    {"HighByteInsideRegisterName",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %ab\xC3\xA9:int = movi 1\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: unexpected character '\xC3'"},
    {"HighByteStartsRegisterName",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %\xC3\xA9:int = movi 1\n"
     "    ret\n"
     "  }\n"
     "}\n",
     "line 4: empty register/array name"},
    {"NulByte", "module {\n  \0\n}\n"sv,
     "line 2: unexpected character '\0'"sv},
    // Tab and CR are spaces; only LF ends a line.
    {"TabAndCarriageReturnBeforeNewline", "module {\t\r\n  gadget\t\r\n}\n",
     "line 2: expected 'array' or 'func'"},
    {"CommentAtEndWithoutNewline",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    ret\n"
     "  }\n"
     "// no closing brace",
     "line 6: unexpected end of input inside module"},
    {"TruncatedFunction",
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    ret\n",
     "line 5: unexpected end of input inside function"},
};

class NegativeParse : public ::testing::TestWithParam<ParseCase> {};

TEST_P(NegativeParse, RejectsWithExactDiagnostic) {
  const ParseCase &C = GetParam();
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(std::string(C.Input), M, Error))
      << "input parsed unexpectedly";
  EXPECT_EQ(Error, C.ExpectedError);
}

INSTANTIATE_TEST_SUITE_P(Table, NegativeParse, ::testing::ValuesIn(ParseCases),
                         [](const auto &Info) { return Info.param.Name; });

//===--------------------------------------------------------------------===//
// Inputs that parse but fail verification.
//===--------------------------------------------------------------------===//

struct VerifyCase {
  const char *Name;
  const char *Input;
  /// Every verifier message, in order; empty for an input it accepts.
  std::vector<const char *> ExpectedErrors;
};

// Named by its case, like ParseCase above, so the test name is stable.
void PrintTo(const VerifyCase &C, std::ostream *OS) { *OS << C.Name; }

const VerifyCase VerifyCases[] = {
    {"UseBeforeDefiniteAssignment",
     // %x is defined only on the left arm but used at the join, so the
     // parser (textual order) accepts it and definite-assignment must
     // reject it.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %c:int = movi 0\n"
     "    br eq %c, %c, left, right\n"
     "  block left:\n"
     "    %x:int = movi 1\n"
     "    jmp join\n"
     "  block right:\n"
     "    jmp join\n"
     "  block join:\n"
     "    %y:int = addi %x, 1\n"
     "    ret\n"
     "  }\n"
     "}\n",
     {"@f: in join: '%y.2:int = addi %x.1, 1': register %x may be used "
      "before definition"}},
    {"BackEdgeUseAtLoopHeader",
     // %i is defined only in the body, which the text places before the
     // header; the header reads it on the path straight from the entry.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %n:int = movi 10\n"
     "    jmp head\n"
     "  block body:\n"
     "    %i:int = addi %n, -1\n"
     "    jmp head\n"
     "  block head:\n"
     "    %t:int = addi %i, 1\n"
     "    br lt %t, %n, body, exit\n"
     "  block exit:\n"
     "    ret %t\n"
     "  }\n"
     "}\n",
     {"@f: in head: '%t.2:int = addi %i.1, 1': register %i may be used "
      "before definition"}},
    {"ReportOrderWithinOneInstruction",
     // Two undefined registers in one instruction are reported in
     // operand order, not register order; one read twice, twice.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %c:int = movi 0\n"
     "    br eq %c, %c, left, join\n"
     "  block left:\n"
     "    %a:int = movi 1\n"
     "    %b:int = movi 2\n"
     "    jmp join\n"
     "  block join:\n"
     "    %x:int = add %b, %a\n"
     "    %y:int = add %a, %a\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     {"@f: in join: '%x.3:int = add %b.2, %a.1': register %b may be used "
      "before definition",
      "@f: in join: '%x.3:int = add %b.2, %a.1': register %a may be used "
      "before definition",
      "@f: in join: '%y.4:int = add %a.1, %a.1': register %a may be used "
      "before definition",
      "@f: in join: '%y.4:int = add %a.1, %a.1': register %a may be used "
      "before definition"}},
    {"UseBeforeLocalDefInEntry",
     // The add reads %x before its own def: nothing assigns it earlier.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = addi %x, 1\n"
     "    %y:int = addi %x, 2\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     {"@f: in entry: '%x.0:int = addi %x.0, 1': register %x may be used "
      "before definition"}},
};

const VerifyCase CleanVerifyCases[] = {
    {"UseAfterLocalDef",
     // %x is unassigned on entry to join, but join defines it before
     // the read.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %c:int = movi 0\n"
     "    br eq %c, %c, left, join\n"
     "  block left:\n"
     "    %x:int = movi 1\n"
     "    jmp join\n"
     "  block join:\n"
     "    %x:int = movi 2\n"
     "    %y:int = addi %x, 1\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     {}},
    {"UseReachableOnlyFromUnreachableBlock",
     // tail reads %z, which no path assigns, but only the unreachable
     // block dead leads to it.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %a:int = movi 1\n"
     "    ret %a\n"
     "  block other:\n"
     "    %z:int = movi 3\n"
     "    ret %z\n"
     "  block dead:\n"
     "    jmp tail\n"
     "  block tail:\n"
     "    %y:int = addi %z, 1\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     {}},
    {"UnreachablePredecessorOfJoin",
     // dead flows into join without assigning %x; no path from the
     // entry passes through it.
     "module {\n"
     "  func @f {\n"
     "  block entry:\n"
     "    %x:int = movi 1\n"
     "    jmp join\n"
     "  block dead:\n"
     "    jmp join\n"
     "  block join:\n"
     "    %y:int = addi %x, 1\n"
     "    ret %y\n"
     "  }\n"
     "}\n",
     {}},
};

/// \p Input's verifier messages; fails the test if it does not parse.
std::vector<std::string> verifyText(const char *Input) {
  Module M;
  std::string Error;
  EXPECT_TRUE(parseModule(Input, M, Error)) << Error;
  return verifyModule(M);
}

class NegativeVerify : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(NegativeVerify, RejectsWithExactDiagnostic) {
  const VerifyCase &C = GetParam();
  EXPECT_FALSE(C.ExpectedErrors.empty());
  EXPECT_EQ(verifyText(C.Input),
            std::vector<std::string>(C.ExpectedErrors.begin(),
                                     C.ExpectedErrors.end()));
}

INSTANTIATE_TEST_SUITE_P(Table, NegativeVerify,
                         ::testing::ValuesIn(VerifyCases),
                         [](const auto &Info) { return Info.param.Name; });

class CleanVerify : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(CleanVerify, Accepts) {
  EXPECT_EQ(verifyText(GetParam().Input), std::vector<std::string>());
}

INSTANTIATE_TEST_SUITE_P(Table, CleanVerify,
                         ::testing::ValuesIn(CleanVerifyCases),
                         [](const auto &Info) { return Info.param.Name; });

} // namespace
