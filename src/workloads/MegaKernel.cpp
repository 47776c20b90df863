//===- workloads/MegaKernel.cpp - Generated giant-function family ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "workloads/MegaKernel.h"

#include "workloads/KernelBuilder.h"
#include "workloads/RandomProgram.h"

using namespace ra;

namespace {

/// Bounded combine: (A + B) / 2 stays within [min(A,B), max(A,B)], so
/// chains of any length never overflow and differential simulation of
/// pre/post-allocation code compares exactly.
VRegId avg(KernelBuilder &B, VRegId A, VRegId C, VRegId Half) {
  return B.fmul(B.fadd(A, C), Half);
}

} // namespace

Function &ra::buildPressureRamp(Module &M, unsigned Ranges, unsigned Width,
                                const std::string &Name) {
  assert(Width >= 2 && "ring needs two slots");
  uint32_t Out = M.newArray(Name + ".out", 1, RegClass::Float);
  Function &F = M.newFunction(Name);
  KernelBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));

  VRegId Half = B.constF(0.5, "half");
  std::vector<VRegId> Ring(Width);
  for (unsigned I = 0; I < Width; ++I)
    Ring[I] = B.constF(1.0 + 0.125 * double(I % 32));

  // Each step consumes two ring slots and replaces one with two fresh
  // temporaries (the sum and the average), so every value stays live
  // for ~Width subsequent steps: ~Ranges overlapping ranges of
  // near-uniform degree ~2*Width, all in one straight-line block.
  unsigned Steps = Ranges / 2;
  for (unsigned I = 0; I < Steps; ++I)
    Ring[I % Width] = avg(B, Ring[I % Width], Ring[(I + 1) % Width], Half);

  VRegId Acc = Ring[0];
  for (unsigned I = 1; I < Width; ++I)
    Acc = avg(B, Acc, Ring[I], Half);
  B.store(Out, B.constI(0), Acc);
  B.ret(Acc);
  return F;
}

Function &ra::buildWideUnrolledLoop(Module &M, unsigned Lanes, unsigned Body,
                                    const std::string &Name) {
  assert(Lanes >= 1 && "need at least one accumulator");
  uint32_t Out = M.newArray(Name + ".out", Lanes, RegClass::Float);
  Function &F = M.newFunction(Name);
  KernelBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));

  VRegId Half = B.constF(0.5, "half");
  std::vector<VRegId> Acc(Lanes);
  for (unsigned L = 0; L < Lanes; ++L)
    Acc[L] = B.fReg("acc" + std::to_string(L));
  for (unsigned L = 0; L < Lanes; ++L)
    B.movF(1.0 + 0.0625 * double(L % 64), Acc[L]);

  VRegId I = B.iReg("i");
  VRegId Trip = B.constI(8, "trip");
  auto Loop = B.forLoop("mega", I, 0, Trip);

  // The unrolled body: a chain of 2*Body temporaries threading through
  // every accumulator. The accumulators are live across the back edge
  // *and* across the whole chain, so each is a very-high-degree node
  // (~2*Body) over a sea of short chain ranges (degree ~Lanes).
  VRegId Prev = Acc[0];
  for (unsigned U = 0; U < Body; ++U)
    Prev = avg(B, Prev, Acc[U % Lanes], Half);
  // Fold the chain back so every lane is redefined inside the loop.
  for (unsigned L = 0; L < Lanes; ++L)
    B.fmul(B.fadd(Acc[L], Prev), Half, Acc[L]);
  B.endDo(Loop);

  for (unsigned L = 0; L < Lanes; ++L)
    B.store(Out, B.constI(int64_t(L)), Acc[L]);
  B.ret(Acc[0]);
  return F;
}

Function &ra::buildRandomStress(Module &M, uint64_t Seed, unsigned Regions,
                                const std::string &Name) {
  RandomProgramConfig C;
  C.MaxDepth = 2;
  C.StatementsPerBlock = 16;
  C.Regions = Regions;
  C.IntVars = 48;
  C.FloatVars = 48;
  C.ArraySize = 32;
  C.LoopTrip = 3;
  Function &F = buildRandomProgram(M, Seed, C);
  (void)Name; // the generator names its own function; Name keys the family
  return F;
}

const std::vector<MegaKernel> &ra::megaKernelFamily() {
  static const std::vector<MegaKernel> Family = {
      {"mega.ramp.10k", "ramp", 10000,
       [](Module &M) -> Function & {
         return buildPressureRamp(M, 10000, 32, "MEGARAMP10K");
       }},
      {"mega.ramp.50k", "ramp", 50000,
       [](Module &M) -> Function & {
         return buildPressureRamp(M, 50000, 64, "MEGARAMP50K");
       }},
      {"mega.wide.12k", "wide", 12000,
       [](Module &M) -> Function & {
         return buildWideUnrolledLoop(M, 96, 6000, "MEGAWIDE12K");
       }},
      {"mega.rand.16k", "random", 16000,
       [](Module &M) -> Function & {
         return buildRandomStress(M, 20260808, 600, "MEGARAND16K");
       }},
  };
  return Family;
}

const std::vector<MegaKernel> &ra::megaKernelTestFamily() {
  static const std::vector<MegaKernel> Family = {
      {"mini.ramp", "ramp", 3000,
       [](Module &M) -> Function & {
         return buildPressureRamp(M, 3000, 16, "MINIRAMP");
       }},
      {"mini.wide", "wide", 1700,
       [](Module &M) -> Function & {
         return buildWideUnrolledLoop(M, 24, 800, "MINIWIDE");
       }},
      {"mini.rand", "random", 2000,
       [](Module &M) -> Function & {
         return buildRandomStress(M, 7, 100, "MINIRAND");
       }},
  };
  return Family;
}
