//===- tests/AuditDiffTest.cpp - Two-pass audit vs the five-pass audit ----===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for the post-allocation audit: every allocation is
// audited by regalloc/AllocationAudit.cpp and by the reference in
// AuditReference.cpp, and the two must return no errors together or
// some errors together. Messages may differ; verdicts may not.
//
// Inputs: the Figure 5 routines raw and optimized, the fuzz corpus,
// random programs, a 75-region stress function and mega.ramp.10k. Each
// is allocated by Chaitin, Briggs, Matula-Beck and linear scan on the
// RT/PC files (16 int, 8 float) and on a 4 + 3 file, and each
// allocation is audited as it stands and after seeded corruptions: a
// color copied from a value live out of the same block, a color copied
// from a random value of its class, a color outside the file, two piece
// corruptions (a piece moved to another register, shrunk by one
// instruction, or cut in two), and one spill.st deleted.
//
// Those files rarely leave linear scan with split ranges, so PieceTables
// adds the random programs at 4 + 4, 5 + 4 and 6 + 6, raw and optimized,
// and gives every allocation that publishes pieces 24 piece corruptions.
//
// FaultInjectedAllocations runs the allocator's own fault injection on
// the Figure 5 routines and mini.rand: a miscoloring returned with the
// audit off must be rejected by both auditors, and the Degraded results
// of non-convergence, a blown deadline and a refused graph must be
// accepted by both and then corrupted like any other allocation.
//
//===----------------------------------------------------------------------===//

#include "AuditReference.h"

#include "analysis/Liveness.h"
#include "ir/IRParser.h"
#include "opt/Optimizer.h"
#include "regalloc/AllocationAudit.h"
#include "support/Rng.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ra;

namespace {

/// How many audited allocations each verdict got, so a test can show it
/// exercised both.
struct Verdicts {
  unsigned Accepted = 0;
  unsigned Rejected = 0;
};

/// Audits \p A both ways and requires the same verdict.
void sameVerdict(const Function &F, const AllocationResult &A,
                 const std::string &What, Verdicts &V) {
  std::vector<std::string> New = auditAllocation(F, A);
  std::vector<std::string> Ref = auditAllocationReference(F, A);
  EXPECT_EQ(New.empty(), Ref.empty())
      << What << ": the audit says "
      << (New.empty() ? "nothing" : New.front()) << ", the reference says "
      << (Ref.empty() ? "nothing" : Ref.front());
  ++(New.empty() ? V.Accepted : V.Rejected);
}

/// Registers that occur in \p F's operands, the ones the audit checks.
std::vector<VRegId> operandRegisters(const Function &F) {
  std::vector<bool> Seen(F.numVRegs(), false);
  std::vector<VRegId> Out;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      for (const Operand &O : I.Ops)
        if (O.isReg() && !Seen[O.Reg]) {
          Seen[O.Reg] = true;
          Out.push_back(O.Reg);
        }
  return Out;
}

/// Gives \p V the color \p Color, and its first piece too when it is
/// split, so the color table still agrees with the piece table.
void recolor(AllocationResult &A, VRegId V, int32_t Color) {
  A.ColorOf[V] = Color;
  for (PieceAssignment &P : A.Pieces)
    if (P.Reg == V) {
      P.PhysReg = uint32_t(Color);
      break;
    }
}

/// \p A with one seeded piece corrupted: moved to another register,
/// shrunk by one instruction at either end, or cut in two with its tail
/// on another register (a move the allocation never made).
AllocationResult corruptPiece(const Function &F, const AllocationResult &A,
                              Rng &R) {
  AllocationResult X = A;
  size_t P = R.nextBelow(A.Pieces.size());
  PieceAssignment &Piece = X.Pieces[P];
  unsigned K = A.Machine.numRegs(F.regClass(Piece.Reg));
  uint32_t OtherReg = uint32_t((Piece.PhysReg + 1 + R.nextBelow(K - 1)) % K);
  uint32_t Width = (Piece.To - Piece.From) / 2;
  switch (R.nextBelow(4)) {
  case 1:
    Piece.From += 2;
    break;
  case 2:
    Piece.To -= 2;
    break;
  case 3:
    if (Width >= 2) {
      PieceAssignment Tail = Piece;
      Tail.From = Piece.From + 2 * uint32_t(1 + R.nextBelow(Width - 1));
      Tail.PhysReg = OtherReg;
      Piece.To = Tail.From;
      X.Pieces.insert(X.Pieces.begin() + long(P) + 1, Tail);
      break;
    }
    [[fallthrough]];
  default:
    Piece.PhysReg = OtherReg;
    if (P == 0 || A.Pieces[P - 1].Reg != Piece.Reg)
      X.ColorOf[Piece.Reg] = int32_t(OtherReg);
  }
  return X;
}

/// Audits \p A on \p F as it stands and after each seeded corruption.
void auditCorruptions(const Function &F, const AllocationResult &A, Rng &R,
                      const std::string &What, Verdicts &V) {
  sameVerdict(F, A, What, V);
  if (!A.Success)
    return;
  std::vector<VRegId> Regs = operandRegisters(F);
  if (Regs.empty())
    return;

  // A color copied from a neighbor: two values of one class live out
  // of the same block.
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  for (unsigned Try = 0; Try < 8; ++Try) {
    uint32_t B = uint32_t(R.nextBelow(F.numBlocks()));
    std::vector<VRegId> Out;
    LV.liveOut(B).forEachSetBit([&](unsigned X) { Out.push_back(X); });
    if (Out.size() < 2)
      continue;
    VRegId X = Out[R.nextBelow(Out.size())], Y = Out[R.nextBelow(Out.size())];
    if (F.regClass(X) != F.regClass(Y) || A.ColorOf[X] == A.ColorOf[Y])
      continue;
    AllocationResult Bad = A;
    recolor(Bad, X, A.ColorOf[Y]);
    sameVerdict(F, Bad, What + " neighbor color", V);
    break;
  }

  // A color copied from a random value of the same class.
  VRegId Victim = Regs[R.nextBelow(Regs.size())];
  VRegId Donor = Regs[R.nextBelow(Regs.size())];
  if (F.regClass(Victim) == F.regClass(Donor) &&
      A.ColorOf[Victim] != A.ColorOf[Donor]) {
    AllocationResult X = A;
    recolor(X, Victim, A.ColorOf[Donor]);
    sameVerdict(F, X, What + " random color", V);
  }

  // A color outside the file.
  {
    AllocationResult X = A;
    X.ColorOf[Victim] = int32_t(A.Machine.numRegs(F.regClass(Victim)));
    sameVerdict(F, X, What + " out-of-file color", V);
  }

  if (!A.Pieces.empty())
    for (unsigned Round = 0; Round < 2; ++Round)
      sameVerdict(F, corruptPiece(F, A, R), What + " piece corruption", V);

  std::vector<std::pair<uint32_t, size_t>> Stores;
  for (const BasicBlock &B : F.blocks())
    for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx)
      if (B.Insts[Idx].Op == Opcode::SpillSt)
        Stores.push_back({B.Id, Idx});
  if (!Stores.empty()) {
    auto [BId, Idx] = Stores[R.nextBelow(Stores.size())];
    Function G = F;
    G.block(BId).Insts.erase(G.block(BId).Insts.begin() + long(Idx));
    sameVerdict(G, A, What + " spill.st deleted", V);
  }
}

/// Allocates a copy of \p F under each allocator at both file sizes and
/// audits every result and its corruptions.
void checkAllocations(const Function &F, uint64_t Seed,
                      const std::string &What, Verdicts &V) {
  Rng R(Seed);
  for (const char *Name : {"chaitin", "briggs", "matula-beck", "linear-scan"})
    for (MachineInfo Machine : {MachineInfo::rtpc(), MachineInfo(4, 3)}) {
      AllocatorConfig C;
      ASSERT_TRUE(parseAllocatorName(Name, C.B, C.H));
      C.Machine = Machine;
      C.MaxPasses = 64; // small files need headroom, as in the fuzzer
      Function G = F;
      AllocationResult A = allocateRegisters(G, C);
      auditCorruptions(G, A, R,
                       What + " " + Name + " " +
                           std::to_string(Machine.numRegs(RegClass::Int)),
                       V);
    }
}

/// Allocates a copy of \p F under each injected fault: a miscoloring
/// with the audit off, which both auditors must reject, then three
/// faults that end on a lower rung of the ladder, whose Degraded
/// results both must accept before their corruptions are audited.
void checkFaults(const Function &F, uint64_t Seed, const std::string &What,
                 Verdicts &V) {
  {
    AllocatorConfig C;
    C.Audit = false;
    C.FaultInject.Miscolor = true;
    Function G = F;
    AllocationResult A = allocateRegisters(G, C);
    ASSERT_TRUE(A.Success) << What << ": " << A.Diag.toString();
    EXPECT_FALSE(auditAllocation(G, A).empty()) << What << " miscolor";
    EXPECT_FALSE(auditAllocationReference(G, A).empty())
        << What << " miscolor";
  }

  using Arm = void (*)(AllocatorConfig &);
  const std::pair<const char *, Arm> Faults[] = {
      {"non-convergence",
       [](AllocatorConfig &C) { C.FaultInject.NonConvergence = true; }},
      {"slow phase",
       [](AllocatorConfig &C) {
         C.DeadlineSeconds = 0.001;
         C.FaultInject.SlowPhaseMicros = 5000; // every pass top trips it
       }},
      {"graph memory spike",
       [](AllocatorConfig &C) {
         C.MemoryBudgetBytes = 64ull << 20;
         C.FaultInject.GraphMemorySpike = true;
       }},
  };
  Rng R(Seed);
  for (const auto &[Name, Apply] : Faults) {
    AllocatorConfig C;
    C.Audit = true;
    Apply(C);
    Function G = F;
    AllocationResult A = allocateRegisters(G, C);
    const std::string Case = What + " " + Name;
    ASSERT_TRUE(A.Success) << Case << ": " << A.Diag.toString();
    EXPECT_EQ(A.Outcome, AllocOutcome::Degraded) << Case;
    EXPECT_TRUE(auditAllocation(G, A).empty()) << Case;
    EXPECT_TRUE(auditAllocationReference(G, A).empty()) << Case;
    auditCorruptions(G, A, R, Case, V);
  }
}

/// Both verdicts must occur, or the inputs prove nothing.
void expectBothVerdicts(const Verdicts &V) {
  EXPECT_GT(V.Accepted, 0u);
  EXPECT_GT(V.Rejected, 0u);
}

TEST(AuditDiffTest, Figure5Routines) {
  Verdicts V;
  uint64_t Seed = 1;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    checkAllocations(F, Seed++, W.Routine, V);
    optimizeFunction(F);
    checkAllocations(F, Seed++, W.Routine + " optimized", V);
  }
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, Corpus) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RA_TESTS_DIR) + "/corpus"))
    if (E.path().extension() == ".ral")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  Verdicts V;
  uint64_t Seed = 100;
  for (const std::filesystem::path &P : Files) {
    std::ifstream In(P);
    std::stringstream Text;
    Text << In.rdbuf();
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(Text.str(), M, Error)) << P << ": " << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      checkAllocations(M.function(I), Seed++, P.filename().string(), V);
  }
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, RandomPrograms) {
  Verdicts V;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    checkAllocations(F, Seed, "random seed " + std::to_string(Seed), V);
  }
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, RandomStress75Regions) {
  Verdicts V;
  Module M;
  Function &F = buildRandomStress(M, 20260808, 75, "stress75");
  checkAllocations(F, 75, "stress75", V);
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, PieceTables) {
  Verdicts V;
  unsigned Pieced = 0;
  for (int Optimized = 0; Optimized < 2; ++Optimized)
    for (MachineInfo Machine :
         {MachineInfo(4, 4), MachineInfo(5, 4), MachineInfo(6, 6)})
      for (uint64_t Seed = 0; Seed < 200; ++Seed) {
        Module M;
        Function &F = buildRandomProgram(M, Seed);
        if (Optimized)
          optimizeFunction(F);
        AllocatorConfig C;
        C.B = Backend::LinearScan;
        C.Machine = Machine;
        C.MaxPasses = 64;
        AllocationResult A = allocateRegisters(F, C);
        if (A.Pieces.empty())
          continue;
        ++Pieced;
        std::string What = "seed " + std::to_string(Seed) +
                           (Optimized ? " optimized " : " ") +
                           std::to_string(Machine.numRegs(RegClass::Int));
        sameVerdict(F, A, What, V);
        Rng R(Seed);
        for (unsigned Round = 0; Round < 24; ++Round)
          sameVerdict(F, corruptPiece(F, A, R),
                      What + " piece corruption " + std::to_string(Round),
                      V);
      }
  EXPECT_GT(Pieced, 10u) << "too few split ranges to test the piece checks";
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, FaultInjectedAllocations) {
  Verdicts V;
  uint64_t Seed = 500;
  for (const Workload &W : allWorkloads()) {
    Module M;
    checkFaults(W.Build(M), Seed++, W.Routine, V);
  }
  const std::vector<MegaKernel> &Family = megaKernelTestFamily();
  auto It = std::find_if(Family.begin(), Family.end(), [](const MegaKernel &K) {
    return K.Name == "mini.rand";
  });
  ASSERT_NE(It, Family.end());
  Module M;
  checkFaults(It->Build(M), Seed, It->Name, V);
  expectBothVerdicts(V);
}

TEST(AuditDiffTest, MegaRamp) {
  const std::vector<MegaKernel> &Family = megaKernelFamily();
  auto It = std::find_if(Family.begin(), Family.end(), [](const MegaKernel &K) {
    return K.Name == "mega.ramp.10k";
  });
  ASSERT_NE(It, Family.end());
  Verdicts V;
  Module M;
  Function &F = It->Build(M);
  checkAllocations(F, 10, It->Name, V);
  expectBothVerdicts(V);
}

} // namespace
