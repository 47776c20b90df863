//===- tests/SimulatorTest.cpp - interpreter and cost-model tests ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "sim/Simulator.h"
#include "target/CostModel.h"
#include "target/MachineInfo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

using namespace ra;

namespace {

struct Fixture {
  Module M;
  Function *F;
  IRBuilder B;

  Fixture() : F(&M.newFunction("t")), B(M, *F) {
    B.setInsertPoint(B.newBlock("entry"));
  }
};

TEST(SimulatorTest, ArithmeticAndReturn) {
  Fixture T;
  VRegId A = T.B.movI(6);
  VRegId Bv = T.B.movI(7);
  VRegId C = T.B.mul(A, Bv);
  T.B.ret(C);
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.HasIntReturn);
  EXPECT_EQ(R.IntReturn, 42);
  EXPECT_EQ(R.Instructions, 4u);
}

TEST(SimulatorTest, FloatOpsAndConversions) {
  Fixture T;
  VRegId I = T.B.movI(-9);
  VRegId Fv = T.B.itof(I);
  VRegId Ab = T.B.fabs(Fv);
  VRegId Sq = T.B.fsqrt(Ab);
  VRegId Back = T.B.ftoi(Sq);
  T.B.ret(Back);
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.IntReturn, 3);
}

TEST(SimulatorTest, TrapsOnDivisionByZero) {
  Fixture T;
  VRegId A = T.B.movI(1);
  VRegId Z = T.B.movI(0);
  T.B.div(A, Z);
  T.B.ret();
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(SimulatorTest, TrapsOnNegativeSqrt) {
  Fixture T;
  VRegId V = T.B.movF(-1.0);
  T.B.fsqrt(V);
  T.B.ret();
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("negative"), std::string::npos);
}

TEST(SimulatorTest, TrapsOnOutOfBoundsAccess) {
  Module M;
  uint32_t A = M.newArray("a", 4, RegClass::Int);
  Function &F = M.newFunction("t");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Idx = B.movI(4); // one past the end
  VRegId V = B.movI(1);
  B.store(A, Idx, V);
  B.ret();
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(SimulatorTest, TrapsOnInstructionBudget) {
  Fixture T;
  uint32_t Loop = T.B.newBlock("loop");
  T.B.jmp(Loop);
  T.B.setInsertPoint(Loop);
  T.B.jmp(Loop); // infinite
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R =
      Sim.runVirtual(*T.F, Mem, SimOptions{.MaxInstructions = 1000});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
  EXPECT_EQ(R.Diag.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(R.Instructions, 1000u);
}

TEST(SimulatorTest, SpillSlotsRoundTripBothClasses) {
  Fixture T;
  unsigned SInt = T.F->newSpillSlot(RegClass::Int);
  unsigned SFlt = T.F->newSpillSlot(RegClass::Float);
  VRegId I = T.B.movI(123);
  VRegId Fv = T.B.movF(1.25);
  T.B.emit({Opcode::SpillSt, {Operand::reg(I), Operand::intImm(SInt)}});
  T.B.emit({Opcode::SpillSt, {Operand::reg(Fv), Operand::intImm(SFlt)}});
  VRegId I2 = T.F->newVReg(RegClass::Int, "i2");
  VRegId F2 = T.F->newVReg(RegClass::Float, "f2");
  T.B.emit({Opcode::SpillLd, {Operand::reg(I2), Operand::intImm(SInt)}});
  T.B.emit({Opcode::SpillLd, {Operand::reg(F2), Operand::intImm(SFlt)}});
  VRegId Sum = T.B.add(I2, T.B.ftoi(F2));
  T.B.ret(Sum);
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntReturn, 124);
  EXPECT_EQ(R.SpillOps, 4u);
  EXPECT_GT(R.SpillCycles, 0u);
}

TEST(SimulatorTest, CyclesFollowTheCostModel) {
  Fixture T;
  VRegId A = T.B.movF(2.0);
  VRegId Bv = T.B.movF(3.0);
  T.B.fdiv(A, Bv);
  T.B.ret();
  CostModel CM = CostModel::rtpc();
  Simulator Sim(T.M, CM);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Cycles, CM.cycles(Opcode::MovF) * 2 +
                          CM.cycles(Opcode::FDiv) +
                          CM.cycles(Opcode::Ret));
}

TEST(SimulatorTest, FloatReturnIsReported) {
  Fixture T;
  VRegId V = T.B.movF(2.5);
  T.B.ret(V);
  Simulator Sim(T.M);
  MemoryImage Mem(T.M);
  ExecutionResult R = Sim.runVirtual(*T.F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.HasFloatReturn);
  EXPECT_FALSE(R.HasIntReturn);
  EXPECT_EQ(R.FloatReturn, 2.5);
}

TEST(CostModelTest, RelativeCostsMatchTheTarget) {
  CostModel CM = CostModel::rtpc();
  // FP is much more expensive than integer work (RT/PC coprocessor);
  // this ratio is what keeps the paper's dynamic improvements small on
  // FP codes and visible on integer codes.
  EXPECT_GT(CM.cycles(Opcode::FAdd), 5 * CM.cycles(Opcode::Add));
  EXPECT_GT(CM.cycles(Opcode::FDiv), CM.cycles(Opcode::FMul));
  EXPECT_GT(CM.cycles(Opcode::FSqrt), CM.cycles(Opcode::FDiv));
  EXPECT_EQ(CM.bytesPerInstruction(), 4u);
  EXPECT_EQ(CM.spillLoadCost(), CM.cycles(Opcode::SpillLd));
}

TEST(MachineInfoTest, FileSizes) {
  MachineInfo M = MachineInfo::rtpc();
  EXPECT_EQ(M.numRegs(RegClass::Int), 16u);
  EXPECT_EQ(M.numRegs(RegClass::Float), 8u);
  MachineInfo Shrunk = M.withIntRegs(10);
  EXPECT_EQ(Shrunk.numRegs(RegClass::Int), 10u);
  EXPECT_EQ(Shrunk.numRegs(RegClass::Float), 8u);
  MachineInfo F4 = M.withFloatRegs(4);
  EXPECT_EQ(F4.numRegs(RegClass::Float), 4u);
}

TEST(MemoryImageTest, TypedStorageAndEquality) {
  Module M;
  uint32_t A = M.newArray("ints", 4, RegClass::Int);
  uint32_t B = M.newArray("flts", 4, RegClass::Float);
  MemoryImage M1(M), M2(M);
  EXPECT_TRUE(M1 == M2);
  M1.intArray(A)[2] = 5;
  EXPECT_FALSE(M1 == M2);
  M2.intArray(A)[2] = 5;
  EXPECT_TRUE(M1 == M2);
  M1.floatArray(B)[0] = 0.5;
  EXPECT_FALSE(M1 == M2);
}

//===--------------------------------------------------------------------===//
// compareRuns: one case per difference it names, in its order.
//===--------------------------------------------------------------------===//

/// Two finished runs over a module with one int and one float array;
/// each case sets the fields it needs by hand.
struct RunPair {
  Module M;
  uint32_t Ints = M.newArray("ints", 4, RegClass::Int);
  uint32_t Flts = M.newArray("flts", 4, RegClass::Float);
  MemoryImage RefMem{M}, GotMem{M};
  ExecutionResult Ref, Got;

  RunPair() { Ref.Ok = Got.Ok = true; }
  std::string compare() const {
    return compareRuns(M, Ref, RefMem, Got, GotMem);
  }
};

double nanWithPayload(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  EXPECT_TRUE(std::isnan(D));
  return D;
}

TEST(CompareRunsTest, AgreeingRunsGiveEmptyString) {
  Fixture T;
  uint32_t A = T.M.newArray("a", 2, RegClass::Int);
  VRegId Idx = T.B.movI(1);
  VRegId V = T.B.movI(9);
  T.B.store(A, Idx, V);
  T.B.ret(V);
  Simulator Sim(T.M);
  MemoryImage RefMem(T.M), GotMem(T.M);
  ExecutionResult Ref = Sim.runVirtual(*T.F, RefMem);
  ExecutionResult Got = Sim.runVirtual(*T.F, GotMem);
  EXPECT_EQ(compareRuns(T.M, Ref, RefMem, Got, GotMem), "");
  EXPECT_EQ(RunPair().compare(), "");
}

TEST(CompareRunsTest, TellsATrapFromAHang) {
  Fixture Trap, Hang;
  Trap.B.div(Trap.B.movI(1), Trap.B.movI(0));
  Trap.B.ret();
  uint32_t Loop = Hang.B.newBlock("loop");
  Hang.B.jmp(Loop);
  Hang.B.setInsertPoint(Loop);
  Hang.B.jmp(Loop);
  MemoryImage TrapMem(Trap.M), HangMem(Hang.M);
  ExecutionResult Trapped = Simulator(Trap.M).runVirtual(*Trap.F, TrapMem);
  ExecutionResult Hung = Simulator(Hang.M).runVirtual(
      *Hang.F, HangMem, SimOptions{.MaxInstructions = 1000});

  EXPECT_EQ(compareRuns(Trap.M, Trapped, TrapMem, Hung, HangMem),
            "reference run trapped: " + Trapped.Error);
  EXPECT_EQ(compareRuns(Trap.M, Hung, HangMem, Trapped, TrapMem),
            "reference run hung: " + Hung.Error);
  RunPair P;
  EXPECT_EQ(compareRuns(P.M, P.Ref, P.RefMem, Trapped, P.GotMem),
            "checked run trapped: " + Trapped.Error);
  EXPECT_EQ(compareRuns(P.M, P.Ref, P.RefMem, Hung, P.GotMem),
            "checked run hung: " + Hung.Error);
}

TEST(CompareRunsTest, IntReturnPresenceThenValue) {
  RunPair P;
  P.GotMem.intArray(P.Ints)[0] = 1; // reported only after the returns
  P.Ref.HasIntReturn = true;
  P.Ref.IntReturn = P.Got.IntReturn = 5;
  EXPECT_EQ(P.compare(),
            "int return differs: reference present, checked absent");
  P.Got.HasIntReturn = true;
  P.Got.IntReturn = 7;
  EXPECT_EQ(P.compare(), "int return differs: reference 5, checked 7");
}

TEST(CompareRunsTest, FloatReturnPresenceThenSignedZero) {
  RunPair P;
  P.GotMem.floatArray(P.Flts)[0] = 1; // reported only after the returns
  P.Got.HasFloatReturn = true;
  EXPECT_EQ(P.compare(),
            "float return differs: reference absent, checked present");
  P.Ref.HasFloatReturn = true;
  P.Got.FloatReturn = -0.0;
  EXPECT_EQ(P.compare(), "float return differs: reference 0, checked -0");
}

TEST(CompareRunsTest, NaNsWithDifferentPayloadsAgree) {
  RunPair P;
  P.Ref.HasFloatReturn = P.Got.HasFloatReturn = true;
  P.Ref.FloatReturn = nanWithPayload(0x7FF8000000000001ull);
  P.Got.FloatReturn = nanWithPayload(0xFFF8000000000002ull);
  P.RefMem.floatArray(P.Flts)[1] = nanWithPayload(0x7FF0000000000003ull);
  P.GotMem.floatArray(P.Flts)[1] = nanWithPayload(0x7FF8000000000000ull);
  EXPECT_EQ(P.compare(), "");
}

TEST(CompareRunsTest, NaNAgainstANumberDiffers) {
  RunPair P;
  P.Ref.HasFloatReturn = P.Got.HasFloatReturn = true;
  P.Ref.FloatReturn = 1.5;
  P.Got.FloatReturn = std::nan("");
  EXPECT_EQ(P.compare(), "float return differs: reference 1.5, checked nan");
  std::swap(P.Ref.FloatReturn, P.Got.FloatReturn);
  EXPECT_EQ(P.compare(), "float return differs: reference nan, checked 1.5");
}

TEST(CompareRunsTest, NamesTheFirstDifferingArrayElement) {
  RunPair P;
  P.GotMem.floatArray(P.Flts)[3] = 0.5;
  EXPECT_EQ(P.compare(), "flts[3] differs: reference 0, checked 0.5");
  P.GotMem.intArray(P.Ints)[2] = -4; // a lower array id is reported first
  EXPECT_EQ(P.compare(), "ints[2] differs: reference 0, checked -4");
  P.GotMem.intArray(P.Ints)[2] = 0;
  P.GotMem.floatArray(P.Flts)[3] = -0.0; // memory keeps the zero's sign
  EXPECT_EQ(P.compare(), "flts[3] differs: reference 0, checked -0");
}

} // namespace
