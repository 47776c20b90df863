//===- tests/IRTest.cpp - IR, printer, parser, verifier tests -------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

using namespace ra;

namespace {

TEST(OpcodeTest, TraitsAreConsistent) {
  EXPECT_TRUE(opcodeHasDef(Opcode::Add));
  EXPECT_TRUE(opcodeHasDef(Opcode::SpillLd));
  EXPECT_FALSE(opcodeHasDef(Opcode::Store));
  EXPECT_FALSE(opcodeHasDef(Opcode::SpillSt));
  EXPECT_FALSE(opcodeHasDef(Opcode::Br));
  EXPECT_TRUE(opcodeIsTerminator(Opcode::Ret));
  EXPECT_TRUE(opcodeIsTerminator(Opcode::Jmp));
  EXPECT_FALSE(opcodeIsTerminator(Opcode::Copy));
  EXPECT_STREQ(opcodeName(Opcode::FSqrt), "fsqrt");
  EXPECT_STREQ(cmpKindName(CmpKind::LE), "le");
}

// What the parser, the printer and the verifier assume of every row.
TEST(OpcodeTest, TableRowsAreWellFormed) {
  std::set<std::string> Names;
  for (unsigned Op = 0; Op < NumOpcodes; ++Op) {
    const OpcodeInfo &Info = opcodeInfo(Opcode(Op));
    SCOPED_TRACE(Info.Name);
    EXPECT_TRUE(Names.insert(Info.Name).second) << "duplicate mnemonic";
    ASSERT_TRUE(Info.NumOps >= 1 && Info.NumOps <= 4);
    std::set<unsigned> Indices;
    for (unsigned K = 0; K < Info.NumOps; ++K) {
      const OperandSpec &S = Info.Ops[K];
      Indices.insert(S.Index);
      EXPECT_EQ(&Info.operand(S.Index), &S);
      // Operand 0 is parsed before any operand whose class is its own.
      EXPECT_TRUE(S.Class != ClassRule::SameAsOp0 || Info.Ops[0].Index == 0);
      // An array's index follows it.
      EXPECT_TRUE(S.Kind != SyntaxKind::Array || K + 1 < Info.NumOps);
    }
    EXPECT_EQ(Indices.size(), size_t(Info.NumOps)) << "repeated index";
    EXPECT_EQ(*Indices.rbegin(), Info.NumOps - 1u) << "index out of range";
    const OperandSpec &First = Info.Ops[0], &Last = Info.Ops[Info.NumOps - 1];
    EXPECT_TRUE(!Info.has(OpcodeInfo::Def) ||
                (First.Index == 0 && First.Kind == SyntaxKind::Reg));
    EXPECT_TRUE(!Info.has(OpcodeInfo::OptionalLast) ||
                (Last.Index == Info.NumOps - 1u &&
                 Last.Kind == SyntaxKind::Reg));
  }
}

TEST(OpcodeTest, CmpEvaluation) {
  EXPECT_TRUE(evalCmp(CmpKind::LT, int64_t(1), int64_t(2)));
  EXPECT_FALSE(evalCmp(CmpKind::GT, int64_t(1), int64_t(2)));
  EXPECT_TRUE(evalCmp(CmpKind::GE, 2.0, 2.0));
  EXPECT_TRUE(evalCmp(CmpKind::NE, 1.5, 2.5));
}

TEST(InstructionTest, DefAndUseIteration) {
  Instruction I{Opcode::Add,
                {Operand::reg(5), Operand::reg(6), Operand::reg(7)}};
  EXPECT_EQ(I.defReg(), 5u);
  std::vector<VRegId> Uses;
  I.forEachUse([&](VRegId R) { Uses.push_back(R); });
  EXPECT_EQ(Uses, (std::vector<VRegId>{6, 7}));

  Instruction St{Opcode::Store,
                 {Operand::reg(1), Operand::array(0), Operand::reg(2)}};
  Uses.clear();
  St.forEachUse([&](VRegId R) { Uses.push_back(R); });
  EXPECT_EQ(Uses, (std::vector<VRegId>{1, 2}))
      << "stores use both the value and the index";
}

TEST(FunctionTest, SpillSlots) {
  Function F("f");
  unsigned S0 = F.newSpillSlot(RegClass::Int);
  unsigned S1 = F.newSpillSlot(RegClass::Float);
  EXPECT_EQ(S0, 0u);
  EXPECT_EQ(S1, 1u);
  EXPECT_EQ(F.spillSlotClass(0), RegClass::Int);
  EXPECT_EQ(F.spillSlotClass(1), RegClass::Float);
}

TEST(ModuleTest, ArrayAndFunctionLookup) {
  Module M;
  uint32_t A = M.newArray("data", 16, RegClass::Int);
  EXPECT_EQ(M.findArray("data"), A);
  EXPECT_EQ(M.findArray("nope"), ~0u);
  Function &F = M.newFunction("main");
  EXPECT_EQ(M.findFunction("main"), &F);
  EXPECT_EQ(M.findFunction("other"), nullptr);
}

//===--------------------------------------------------------------------===//
// Parser.
//===--------------------------------------------------------------------===//

TEST(ParserTest, ParsesSmallModule) {
  const char *Text = R"(
    module {
      array @a : int[8]
      func @f {
      block entry:
        %x:int = movi 5
        %y:int = addi %x, 37
        store @a[%x], %y
        %z:int = load @a[%x]
        ret %z
      }
    }
  )";
  Module M;
  std::string Err;
  ASSERT_TRUE(parseModule(Text, M, Err)) << Err;
  ASSERT_EQ(M.numFunctions(), 1u);
  Function &F = M.function(0);
  EXPECT_EQ(F.name(), "f");
  EXPECT_EQ(F.numBlocks(), 1u);
  EXPECT_EQ(F.numInstructions(), 5u);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntReturn, 42);
}

TEST(ParserTest, ParsesControlFlowAndFloats) {
  const char *Text = R"(
    module {
      array @v : flt[4]
      func @g {
      block entry:
        %i:int = movi 0
        %n:int = movi 4
        %sum:flt = movf 0.0
        jmp head
      block head:
        br lt %i, %n, body, exit
      block body:
        %x:flt = fload @v[%i]
        %sum:flt = fadd %sum, %x
        %i:int = addi %i, 1
        jmp head
      block exit:
        ret %sum
      }
    }
  )";
  Module M;
  std::string Err;
  ASSERT_TRUE(parseModule(Text, M, Err)) << Err;
  Function &F = M.function(0);
  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  Simulator Sim(M);
  MemoryImage Mem(M);
  auto &V = Mem.floatArray(0);
  V = {1.5, 2.0, 3.0, 4.0};
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FloatReturn, 10.5);
}

TEST(ParserTest, AcceptsLiteralsAtTheirLimits) {
  // The extremes of int64_t, the smallest subnormal (underflow is not
  // an error: the printer writes subnormals) and the largest array.
  const char *Text = R"(
    module {
      array @big : int[4294967295]
      func @f {
      block entry:
        %lo:int = movi -9223372036854775808
        %hi:int = movi 9223372036854775807
        %tiny:flt = movf 4.9406564584124654e-324
        ret
      }
    }
  )";
  Module M, Again;
  std::string Err;
  ASSERT_TRUE(parseModule(Text, M, Err)) << Err;
  // The printed literals parse back to the same values.
  ASSERT_TRUE(parseModule(printModule(M), Again, Err)) << Err;
  for (const Module *P : {&M, &Again}) {
    EXPECT_EQ(P->array(0).Size, UINT32_MAX);
    const std::vector<Instruction> &Insts = P->function(0).block(0).Insts;
    EXPECT_EQ(Insts[0].Ops[1].Imm, std::numeric_limits<int64_t>::min());
    EXPECT_EQ(Insts[1].Ops[1].Imm, std::numeric_limits<int64_t>::max());
    EXPECT_EQ(Insts[2].Ops[1].FImm,
              std::numeric_limits<double>::denorm_min());
  }
}

TEST(ParserTest, SpillSlotsNamedOutOfOrderKeepTheirClasses) {
  // Slot 3 is named before slots 0-2; only the slots an instruction
  // names take its class, and an unnamed slot is int.
  const char *Text = R"(
    module {
      func @f {
      block entry:
        %x:flt = movf 1.5
        %i:int = movi 2
        spill.st %x, 3
        spill.st %i, 1
        %y:flt = spill.ld 3
        ret %y
      }
    }
  )";
  Module M;
  std::string Err;
  ASSERT_TRUE(parseModule(Text, M, Err)) << Err;
  const Function &F = M.function(0);
  ASSERT_EQ(F.numSpillSlots(), 4u);
  EXPECT_EQ(F.spillSlotClass(0), RegClass::Int);
  EXPECT_EQ(F.spillSlotClass(1), RegClass::Int);
  EXPECT_EQ(F.spillSlotClass(2), RegClass::Int);
  EXPECT_EQ(F.spillSlotClass(3), RegClass::Float);
  EXPECT_EQ(verifyFunction(M, F), std::vector<std::string>());
}

struct ParserErrorCase {
  const char *Name;
  const char *Text;
  const char *ExpectInMessage;
};

// Without a printer gtest names each case by the raw bytes of its
// pointers, which change from run to run under address randomization.
void PrintTo(const ParserErrorCase &C, std::ostream *OS) { *OS << C.Name; }

class ParserErrors : public ::testing::TestWithParam<ParserErrorCase> {};

TEST_P(ParserErrors, RejectsWithDiagnostic) {
  Module M;
  std::string Err;
  EXPECT_FALSE(parseModule(GetParam().Text, M, Err));
  EXPECT_NE(Err.find(GetParam().ExpectInMessage), std::string::npos)
      << "actual: " << Err;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        ParserErrorCase{"MissingModule", "func @f {}", "expected 'module'"},
        ParserErrorCase{"UnknownOpcode",
                        "module { func @f { block e: frobnicate } }",
                        "unknown opcode"},
        ParserErrorCase{"UndefinedRegister",
                        "module { func @f { block e: ret %x } }",
                        "undefined register"},
        ParserErrorCase{"UnknownArray",
                        "module { func @f { block e: %x:int = load "
                        "@a[%x] ret } }",
                        "unknown array"},
        ParserErrorCase{"UnknownBlock",
                        "module { func @f { block e: jmp nowhere } }",
                        "unknown block"},
        ParserErrorCase{"ClassMismatch",
                        "module { func @f { block e: %x:int = movi 1\n"
                        "%x:flt = movf 1.0\nret } }",
                        "different class"},
        ParserErrorCase{"DuplicateArray",
                        "module { array @a : int[1] array @a : int[2] }",
                        "duplicate array"},
        ParserErrorCase{"DefOnVoidOp",
                        "module { func @f { block e: %x:int = ret } }",
                        "does not produce a value"}),
    [](const auto &Info) { return std::string(Info.param.Name); });

//===--------------------------------------------------------------------===//
// Printer round-trips.
//===--------------------------------------------------------------------===//

/// A round-trip input: a Figure 5 routine by name, else a tests/corpus
/// file.
Function &buildRoundTripInput(const std::string &Name, Module &M) {
  if (const Workload *W = findWorkload(Name))
    return W->Build(M);
  std::string Err;
  if (!parseModule(corpusText(Name), M, Err) || M.numFunctions() != 1)
    throw std::runtime_error("bad corpus file " + Name + ": " + Err);
  return M.function(0);
}

/// Prints \p M, parses it back, and checks that \p F's copy has the same
/// shape, verifies, and runs the same: memory, return values and cycles.
void expectRoundTrip(const Module &M, const Function &F,
                     const std::string &Name) {
  std::string Text = printModule(M);
  Module M2;
  std::string Err;
  ASSERT_TRUE(parseModule(Text, M2, Err)) << Err;
  Function *F2 = M2.findFunction(F.name());
  ASSERT_NE(F2, nullptr);
  EXPECT_EQ(F2->numBlocks(), F.numBlocks());
  EXPECT_EQ(F2->numInstructions(), F.numInstructions());
  EXPECT_EQ(verifyFunction(M2, *F2), std::vector<std::string>());

  Simulator S1(M), S2(M2);
  MemoryImage Mem1(M), Mem2(M2);
  if (const Workload *W = findWorkload(Name)) {
    W->Init(M, Mem1);
    W->Init(M2, Mem2);
  }
  ExecutionResult R1 = S1.runVirtual(F, Mem1);
  ExecutionResult R2 = S2.runVirtual(*F2, Mem2);
  EXPECT_EQ(compareRuns(M, R1, Mem1, R2, Mem2), "");
  EXPECT_EQ(R1.Cycles, R2.Cycles);
}

class RoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTrip, WorkloadPrintsParsesAndRunsTheSame) {
  Module M;
  Function &F = buildRoundTripInput(GetParam(), M);
  expectRoundTrip(M, F, GetParam());
  Module M2;
  std::string Err;
  ASSERT_TRUE(parseModule(printModule(M), M2, Err)) << Err;
  EXPECT_EQ(M2.function(0).numVRegs(), F.numVRegs());
}

// Allocated code, spill code included, is output: it must parse back,
// verify and run the same. Figure 5 is allocated at the RT/PC's 16+8 and
// a tight 6+4, the corpus at 4+3.
TEST_P(RoundTrip, AllocatedCodePrintsParsesAndRunsTheSame) {
  std::vector<std::pair<unsigned, unsigned>> Files = {{4, 3}};
  if (findWorkload(GetParam()))
    Files = {{16, 8}, {6, 4}};
  for (const char *Allocator : {"chaitin", "briggs", "linear-scan"})
    for (auto [Int, Flt] : Files) {
      SCOPED_TRACE(std::string(Allocator) + " " + std::to_string(Int) + "+" +
                   std::to_string(Flt));
      Module M;
      Function &F = buildRoundTripInput(GetParam(), M);
      optimizeFunction(F);
      AllocatorConfig C;
      ASSERT_TRUE(parseAllocatorName(Allocator, C.B, C.H));
      C.Machine = MachineInfo(Int, Flt);
      allocateRegisters(F, C);
      expectRoundTrip(M, F, GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(AllRoutines, RoundTrip, [] {
  std::vector<std::string> Names;
  for (const Workload &W : allWorkloads())
    Names.push_back(W.Routine);
  return ::testing::ValuesIn(Names);
}());

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTrip,
                         ::testing::ValuesIn(corpusFileNames()));

TEST(RoundTripRandom, RandomProgramsSurviveTextRoundTrip) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    std::string Text = printModule(M);
    Module M2;
    std::string Err;
    ASSERT_TRUE(parseModule(Text, M2, Err)) << "seed " << Seed << ": " << Err;
    Function &F2 = M2.function(0);
    Simulator S1(M), S2(M2);
    MemoryImage Mem1(M), Mem2(M2);
    ExecutionResult R1 = S1.runVirtual(F, Mem1);
    ExecutionResult R2 = S2.runVirtual(F2, Mem2);
    EXPECT_EQ(compareRuns(M, R1, Mem1, R2, Mem2), "") << "seed " << Seed;
  }
}

//===--------------------------------------------------------------------===//
// Verifier negatives.
//===--------------------------------------------------------------------===//

TEST(VerifierTest, CatchesMissingTerminator) {
  Module M;
  Function &F = M.newFunction("bad");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  B.movI(1);
  auto Errors = verifyFunction(M, F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesUseBeforeDef) {
  Module M;
  Function &F = M.newFunction("bad");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Join = B.newBlock("join");
  B.setInsertPoint(Entry);
  VRegId A = B.movI(1);
  VRegId Cond = B.movI(0);
  B.br(CmpKind::EQ, A, Cond, Then, Join);
  B.setInsertPoint(Then);
  VRegId X = B.movI(5); // only defined on one path
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.ret(X);
  auto Errors = verifyFunction(M, F);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("before definition"), std::string::npos);
}

TEST(VerifierTest, CatchesClassMismatch) {
  Module M;
  Function &F = M.newFunction("bad");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.movI(1);
  VRegId Fv = F.newVReg(RegClass::Float, "f");
  // Hand-build a malformed add mixing classes.
  B.emit({Opcode::Add,
          {Operand::reg(Fv), Operand::reg(X), Operand::reg(X)}});
  B.ret();
  EXPECT_FALSE(verifyFunction(M, F).empty());
}

TEST(VerifierTest, CatchesBadBlockReference) {
  Module M;
  Function &F = M.newFunction("bad");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  B.emit({Opcode::Jmp, {Operand::block(99)}});
  EXPECT_FALSE(verifyFunction(M, F).empty());
}

/// A one-block function whose \p Op names register numVRegs() + 1000
/// and a valid spill slot.
std::vector<std::string> verifySpillOfOutOfRangeRegister(Opcode Op) {
  Module M;
  Function &F = M.newFunction("bad");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  unsigned Slot = F.newSpillSlot(RegClass::Int);
  B.emit({Op, {Operand::reg(F.numVRegs() + 1000), Operand::intImm(Slot)}});
  B.ret();
  return verifyFunction(M, F);
}

TEST(VerifierTest, CatchesOutOfRangeSpillLoadRegister) {
  auto Errors = verifySpillOfOutOfRangeRegister(Opcode::SpillLd);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("register id out of range"), std::string::npos)
      << Errors[0];
}

TEST(VerifierTest, CatchesOutOfRangeSpillStoreRegister) {
  auto Errors = verifySpillOfOutOfRangeRegister(Opcode::SpillSt);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("register id out of range"), std::string::npos)
      << Errors[0];
}

// The message quotes the bad instruction, so printing it must not trip
// an assertion on the operand that is wrong.
TEST(VerifierTest, QuotesMalformedInstructionsWithoutAborting) {
  const VRegId X = 0, Bad = 1000;
  const std::pair<Instruction, const char *> Cases[] = {
      {{Opcode::MovI, {Operand::reg(Bad), Operand::intImm(1)}},
       "'%<bad:1000>:<bad> = movi 1': register id out of range"},
      {{Opcode::MovI, {}}, "'movi': expected 2 operands, found 0"},
      {{Opcode::Load, {Operand::reg(X), Operand::array(7), Operand::reg(X)}},
       "'%x.0:int = load @<bad:7>[%x.0]': array id out of range"},
      {{Opcode::Load, {Operand::reg(X), Operand::array(0)}},
       "'%x.0:int = load @a': expected 3 operands, found 2"},
  };
  for (const auto &[Inst, Error] : Cases) {
    Module M;
    M.newArray("a", 4, RegClass::Int);
    Function &F = M.newFunction("bad");
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    ASSERT_EQ(B.movI(1, B.iReg("x")), X);
    B.emit(Inst);
    B.ret();
    auto Errors = verifyFunction(M, F);
    ASSERT_EQ(Errors.size(), 1u) << Error;
    EXPECT_NE(Errors[0].find(Error), std::string::npos) << Errors[0];
  }
}

TEST(VerifierTest, AcceptsAllWorkloads) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    auto Errors = verifyFunction(M, F);
    EXPECT_TRUE(Errors.empty())
        << W.Routine << ": " << (Errors.empty() ? "" : Errors[0]);
  }
}

} // namespace
