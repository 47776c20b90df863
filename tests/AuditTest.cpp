//===- tests/AuditTest.cpp - post-allocation audit & degradation ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The self-checking allocator's contract: the independent audit accepts
// every honest allocation, rejects hand-corrupted and fault-injected
// ones, and the degradation ladder (primary -> spill-everything ->
// diagnostic) turns those rejections into Degraded-but-correct results
// instead of wrong code or a dead process.
//
//===----------------------------------------------------------------------===//

#include "AuditReference.h"

#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "linearscan/LiveInterval.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// The audit accepts honest allocations.
//===--------------------------------------------------------------------===//

TEST(AuditTest, AcceptsHonestAllocationsAcrossHeuristicsAndSizes) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    for (Heuristic H :
         {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
      for (unsigned K : {16u, 6u, 4u}) {
        Module M;
        Function &F = buildRandomProgram(M, Seed);
        AllocatorConfig C;
        C.H = H;
        C.Machine = MachineInfo(K, K);
        C.MaxPasses = 64;
        AllocationResult A = allocateRegisters(F, C);
        ASSERT_TRUE(A.Success);
        EXPECT_EQ(A.Outcome, AllocOutcome::Converged);
        EXPECT_TRUE(auditAllocation(F, A).empty())
            << "seed " << Seed << " " << heuristicName(H) << " k=" << K
            << ": " << auditAllocation(F, A).front();
        EXPECT_TRUE(auditAllocationStatus(F, A).ok());
      }
    }
  }
}

TEST(AuditTest, AcceptsSpillHeavyAllocation) {
  Module M;
  Function &F = buildDGEFA(M); // spills at tight sizes
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_GT(A.Stats.totalSpills(), 0u) << "no spills; weak test";
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

//===--------------------------------------------------------------------===//
// The audit rejects corrupted allocations.
//===--------------------------------------------------------------------===//

/// A small allocated function plus its result, ready to be corrupted.
struct Allocated {
  Module M;
  Function *F = nullptr;
  AllocationResult A;
};

Allocated allocateSmall(unsigned IntK = 4, unsigned FltK = 3) {
  Allocated Out;
  Out.F = &buildRandomProgram(Out.M, 42);
  AllocatorConfig C;
  C.Machine = MachineInfo(IntK, FltK);
  Out.A = allocateRegisters(*Out.F, C);
  EXPECT_TRUE(Out.A.Success);
  EXPECT_TRUE(auditAllocation(*Out.F, Out.A).empty());
  return Out;
}

TEST(AuditTest, CatchesOutOfFileRegister) {
  Allocated X = allocateSmall();
  // Push one assignment past the end of its register file.
  X.A.ColorOf[0] = int32_t(X.A.Machine.numRegs(X.F->regClass(0)));
  auto Errors = auditAllocation(*X.F, X.A);
  ASSERT_FALSE(Errors.empty());
  Status S = auditAllocationStatus(*X.F, X.A);
  EXPECT_EQ(S.code(), StatusCode::AuditFailure);
}

TEST(AuditTest, CatchesMissingAssignment) {
  Allocated X = allocateSmall();
  X.A.ColorOf[0] = -1;
  EXPECT_FALSE(auditAllocation(*X.F, X.A).empty());
}

TEST(AuditTest, CatchesInjectedMiscoloringWhenAllocatorDoesNot) {
  // With the in-allocator audit off, the injected miscoloring sails
  // through as Converged — the external audit must still catch it.
  Module M;
  Function &F = buildRandomProgram(M, 11);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.Audit = false;
  C.FaultInject.Miscolor = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_EQ(A.Outcome, AllocOutcome::Converged);
  EXPECT_FALSE(auditAllocation(F, A).empty());
}

TEST(AuditTest, CatchesCorruptedSpillSlot) {
  Allocated X = allocateSmall(4, 2); // tight: guarantees spill code
  ASSERT_GT(X.F->numSpillSlots(), 0u) << "no spill code; weak test";
  // Point the first spill load at a slot that does not exist.
  bool Corrupted = false;
  for (BasicBlock &B : X.F->blocks()) {
    for (Instruction &I : B.Insts)
      if (I.Op == Opcode::SpillLd) {
        I.Ops[1] = Operand::intImm(int64_t(X.F->numSpillSlots()) + 7);
        Corrupted = true;
        break;
      }
    if (Corrupted)
      break;
  }
  ASSERT_TRUE(Corrupted);
  EXPECT_FALSE(auditAllocation(*X.F, X.A).empty());
}

//===--------------------------------------------------------------------===//
// Split-range corruptions, rejected by the audit and by its reference.
//===--------------------------------------------------------------------===//

/// What a piece-table corruption sees of the allocation it corrupts:
/// the allocation's liveness, its exact live intervals, and each block's
/// first read slot.
struct PieceSite {
  const Function &F;
  const Liveness &LV;
  const LiveIntervals &LI;
  std::vector<uint32_t> TopSlot;
};

/// Where \p V lives at slot \p S in \p A: its piece's register, its
/// color when unsplit, or -1 in a gap.
int32_t regAt(const AllocationResult &A, VRegId V, uint32_t S) {
  bool Split = false;
  for (const PieceAssignment &P : A.Pieces)
    if (P.Reg == V) {
      Split = true;
      if (P.From <= S && S < P.To)
        return int32_t(P.PhysReg);
    }
  return Split ? -1 : A.ColorOf[V];
}

/// Runs \p Corrupt on converged linear-scan allocations of random
/// programs (6 int + 6 float registers) that publish pieces, until it
/// reports a corruption; then both auditors must reject the result and
/// the audit must say \p Expected.
void expectPieceCorruptionCaught(
    const std::string &Expected,
    const std::function<bool(const PieceSite &, AllocationResult &)>
        &Corrupt) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    AllocatorConfig C;
    C.B = Backend::LinearScan;
    C.Machine = MachineInfo(6, 6);
    C.MaxPasses = 64;
    AllocationResult A = allocateRegisters(F, C);
    if (A.Outcome != AllocOutcome::Converged || A.Pieces.empty())
      continue;
    ASSERT_TRUE(auditAllocation(F, A).empty()) << "seed " << Seed;
    ASSERT_TRUE(auditAllocationReference(F, A).empty()) << "seed " << Seed;
    CFG G = CFG::compute(F);
    Liveness LV = Liveness::compute(F, G);
    LiveIntervals LI =
        LiveIntervals::compute(F, LV, InstrNumbering::compute(F));
    PieceSite Site{F, LV, LI, {}};
    uint32_t Idx = 0;
    for (const BasicBlock &B : F.blocks()) {
      Site.TopSlot.push_back(Idx * 2);
      Idx += uint32_t(B.Insts.size());
    }
    if (!Corrupt(Site, A))
      continue;
    std::vector<std::string> Errors = auditAllocation(F, A);
    EXPECT_FALSE(auditAllocationReference(F, A).empty()) << "seed " << Seed;
    ASSERT_FALSE(Errors.empty()) << "seed " << Seed;
    bool Said = false;
    for (const std::string &E : Errors)
      Said |= E.find(Expected) != std::string::npos;
    EXPECT_TRUE(Said) << "seed " << Seed << ": " << Errors.front();
    return;
  }
  FAIL() << "no random program offered a site for this corruption";
}

TEST(AuditTest, CatchesPieceMoveIntoOccupiedRegister) {
  // A split value's next piece starts inside a block, where it is live:
  // retarget that move at the register of an unsplit value live there.
  expectPieceCorruptionCaught(
      "piece move puts", [](const PieceSite &S, AllocationResult &A) {
        for (size_t J = 1; J < A.Pieces.size(); ++J) {
          PieceAssignment &Next = A.Pieces[J];
          const PieceAssignment &Prev = A.Pieces[J - 1];
          uint32_t Slot = Next.From;
          if (Prev.Reg != Next.Reg || Prev.To != Slot ||
              std::count(S.TopSlot.begin(), S.TopSlot.end(), Slot) ||
              !S.LI.interval(Next.Reg).covers(Slot))
            continue;
          for (VRegId W = 0; W < S.F.numVRegs(); ++W) {
            int32_t Held = regAt(A, W, Slot);
            if (W == Next.Reg || Held < 0 ||
                S.F.regClass(W) != S.F.regClass(Next.Reg) ||
                Held == int32_t(Prev.PhysReg) ||
                !S.LI.interval(W).covers(Slot))
              continue;
            Next.PhysReg = uint32_t(Held);
            return true;
          }
        }
        return false;
      });
}

TEST(AuditTest, CatchesTwoLiveInsSharingARegisterAtBlockEntry) {
  // Give the piece a split value occupies at a block's top the register
  // of another live-in of its class.
  expectPieceCorruptionCaught(
      "at block entry", [](const PieceSite &S, AllocationResult &A) {
        for (uint32_t B = 0; B < S.F.numBlocks(); ++B) {
          const uint32_t Top = S.TopSlot[B];
          for (size_t J = 0; J < A.Pieces.size(); ++J) {
            PieceAssignment &P = A.Pieces[J];
            if (!(P.From <= Top && Top < P.To) || !S.LV.isLiveIn(B, P.Reg))
              continue;
            for (VRegId W = 0; W < S.F.numVRegs(); ++W) {
              if (W == P.Reg || !S.LV.isLiveIn(B, W))
                continue;
              int32_t Held = regAt(A, W, Top);
              if (Held < 0 || Held == int32_t(P.PhysReg) ||
                  S.F.regClass(W) != S.F.regClass(P.Reg))
                continue;
              P.PhysReg = uint32_t(Held);
              if (J == 0 || A.Pieces[J - 1].Reg != P.Reg)
                A.ColorOf[P.Reg] = Held;
              return true;
            }
          }
        }
        return false;
      });
}

TEST(AuditTest, CatchesReadInPieceGap) {
  // Cut a hole in a split value's piece exactly where an instruction
  // reads it.
  expectPieceCorruptionCaught(
      "where no piece assigns it a register",
      [](const PieceSite &S, AllocationResult &A) {
        uint32_t Slot = 0;
        for (const BasicBlock &B : S.F.blocks())
          for (const Instruction &I : B.Insts) {
            bool Cut = false;
            I.forEachUse([&](VRegId U) {
              for (PieceAssignment &P : A.Pieces) {
                if (Cut || P.Reg != U || !(P.From <= Slot && Slot < P.To))
                  continue;
                if (P.From < Slot)
                  P.To = Slot;
                else if (Slot + 2 < P.To)
                  P.From = Slot + 2;
                else
                  continue;
                Cut = true;
              }
            });
            if (Cut)
              return true;
            Slot += 2;
          }
        return false;
      });
}

TEST(AuditTest, CatchesReloadOnDiamondMissingAStore) {
  // x is stored to its slot on both arms of a diamond and reloaded at
  // the join. Dropping the store on one arm leaves a path on which the
  // reload reads a slot nothing wrote.
  Module M;
  uint32_t Arr = M.newArray("a", 4, RegClass::Int);
  Function &F = M.newFunction("diamond");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry"), Left = B.newBlock("left"),
           Right = B.newBlock("right"), Join = B.newBlock("join");
  unsigned Slot = F.newSpillSlot(RegClass::Int);
  B.setInsertPoint(Entry);
  VRegId X = B.movI(7);
  VRegId Zero = B.movI(0);
  B.br(CmpKind::LT, Zero, X, Left, Right);
  for (uint32_t Arm : {Left, Right}) {
    B.setInsertPoint(Arm);
    B.emit({Opcode::SpillSt, {Operand::reg(X), Operand::intImm(Slot)}});
    B.jmp(Join);
  }
  B.setInsertPoint(Join);
  VRegId Y = B.iReg();
  B.emit({Opcode::SpillLd, {Operand::reg(Y), Operand::intImm(Slot)}});
  B.store(Arr, Zero, Y);
  B.ret();

  AllocatorConfig C;
  C.B = Backend::LinearScan;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  ASSERT_TRUE(auditAllocation(F, A).empty());
  ASSERT_TRUE(auditAllocationReference(F, A).empty());

  std::vector<Instruction> &RightInsts = F.block(Right).Insts;
  ASSERT_EQ(RightInsts.front().Op, Opcode::SpillSt);
  RightInsts.erase(RightInsts.begin());
  std::vector<std::string> Errors = auditAllocation(F, A);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors.front().find("spill slot"), std::string::npos)
      << Errors.front();
  EXPECT_FALSE(auditAllocationReference(F, A).empty());
}

//===--------------------------------------------------------------------===//
// Degradation ladder.
//===--------------------------------------------------------------------===//

TEST(AuditTest, MiscolorFaultDegradesToCorrectFallback) {
  Module M;
  Function &F = buildRandomProgram(M, 5);
  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);

  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.Audit = true;
  C.FaultInject.Miscolor = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::AuditFailure);
  EXPECT_TRUE(auditAllocation(F, A).empty())
      << "fallback allocation must itself audit clean";

  // Degraded still means correct: the spill-everything code computes
  // the same results as the virtual golden run.
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runAllocated(F, A, Mem);
  EXPECT_EQ(compareRuns(M, Golden, GoldenMem, R, Mem), "");
}

TEST(AuditTest, NonConvergenceFaultDegrades) {
  Module M;
  Function &F = buildRandomProgram(M, 9);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 3);
  C.FaultInject.NonConvergence = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::NonConvergence);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(AuditTest, FallbackWorksAtMinimumFileSizes) {
  // The acceptance grid's smallest machine: 4 int, 2 flt. The
  // spill-everything fallback must still terminate and audit clean.
  Module M;
  Function &F = buildRandomProgram(M, 3);
  AllocatorConfig C;
  C.Machine = MachineInfo(4, 2);
  C.FaultInject.NonConvergence = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AuditTest, MalformedFunctionFailsWithDiagnosticNotAbort) {
  Module M;
  Function &Empty = M.newFunction("hollow"); // no blocks at all
  AllocatorConfig C;
  AllocationResult A = allocateRegisters(Empty, C);
  EXPECT_FALSE(A.Success);
  EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
  EXPECT_EQ(A.Diag.code(), StatusCode::InvalidInput);
  EXPECT_NE(A.Diag.toString().find("hollow"), std::string::npos)
      << A.Diag.toString();
}

TEST(AuditTest, OneShapeCheckGuardsAllocationAndAudit) {
  // A spill store with no slot operand, and a definition whose first
  // operand is not a register: allocateRegisters refuses each as
  // InvalidInput, and the audit reports it instead of reading operands
  // that are not there.
  for (bool Spill : {true, false}) {
    Module M;
    Function &F = M.newFunction("misshapen");
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    VRegId X = B.movI(1);
    if (Spill)
      B.emit({Opcode::SpillSt, {Operand::reg(X)}});
    else
      B.emit({Opcode::MovI, {Operand::intImm(3), Operand::intImm(4)}});
    B.ret();
    const char *Expected =
        Spill ? "malformed spill instruction" : "malformed definition";

    Function Copy = F;
    AllocationResult A = allocateRegisters(Copy, AllocatorConfig());
    EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
    EXPECT_EQ(A.Diag.code(), StatusCode::InvalidInput);
    EXPECT_NE(A.Diag.toString().find(Expected), std::string::npos)
        << A.Diag.toString();

    AllocationResult Colored;
    Colored.ColorOf.assign(F.numVRegs(), 0);
    std::vector<std::string> Errors = auditAllocation(F, Colored);
    ASSERT_EQ(Errors.size(), 1u);
    EXPECT_NE(Errors.front().find(Expected), std::string::npos)
        << Errors.front();
  }
}

TEST(AuditTest, DegradedFunctionsReportedThroughModuleAllocation) {
  Module M;
  buildDAXPY(M);
  buildDDOT(M);
  AllocatorConfig C;
  C.Machine = MachineInfo(6, 4);
  C.FaultInject.NonConvergence = true; // every function degrades
  ModuleAllocationResult R = allocateModule(M, C);
  ASSERT_EQ(R.Functions.size(), M.numFunctions());
  EXPECT_TRUE(R.allSucceeded());
  EXPECT_EQ(R.numDegraded(), M.numFunctions());
  for (const AllocationResult &A : R.Functions)
    EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
}

} // namespace
