//===- tests/NegativeParseTest.cpp - malformed-input diagnostics ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Table-driven negative paths for the textual-IR front end: every
// malformed input must be rejected with the exact "line N: message"
// diagnostic, and inputs that parse but break structural invariants
// must draw the exact verifier message. Pinning the full strings keeps
// the diagnostics (which rac prints to users and ralfuzz reproducers
// rely on) from silently regressing.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

struct ParseCase {
  const char *Name;
  const char *Input;
  const char *ExpectedError; ///< exact "line N: message"
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
     "line 4: duplicate array @a"},
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
     "line 5: reference to unknown block 'nowhere'"},
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
  EXPECT_FALSE(parseModule(C.Input, M, Error)) << "input parsed unexpectedly";
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
  const char *ExpectedError; ///< exact first verifier message
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
     "@f: in join: '%y.2:int = addi %x.1, 1': register %x may be used "
     "before definition"},
};

class NegativeVerify : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(NegativeVerify, RejectsWithExactDiagnostic) {
  const VerifyCase &C = GetParam();
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(C.Input, M, Error)) << Error;
  auto Errors = verifyModule(M);
  ASSERT_FALSE(Errors.empty()) << "verifier accepted bad input";
  EXPECT_EQ(Errors.front(), C.ExpectedError);
}

INSTANTIATE_TEST_SUITE_P(Table, NegativeVerify,
                         ::testing::ValuesIn(VerifyCases),
                         [](const auto &Info) { return Info.param.Name; });

} // namespace
