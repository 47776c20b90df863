//===- tests/VerifierReference.cpp - Forward definite assignment ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "VerifierReference.h"

#include "ir/IRPrinter.h"
#include "support/BitVector.h"

#include <deque>

using namespace ra;

std::vector<std::string> ra::definiteAssignmentReference(const Module &M,
                                                         const Function &F) {
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  // In[b] = intersection over predecessors of Out[p]; Out = In U defs.
  std::vector<BitVector> Out(NB, BitVector(NR));
  std::vector<bool> Reached(NB, false);
  std::vector<std::vector<uint32_t>> Preds(NB);
  for (const BasicBlock &B : F.blocks())
    for (uint32_t S : B.successors())
      Preds[S].push_back(B.Id);

  // Initialize Out[b] to "everything" for unprocessed blocks so the
  // intersection over predecessors starts from the top element.
  for (BitVector &BV : Out)
    BV.setAll();

  // The entry's In is empty; any other block's is the intersection of
  // its reached predecessors' Out. False when none is reached yet.
  auto InOf = [&](uint32_t BId, BitVector &In) {
    In = BitVector(NR);
    if (BId == F.entry())
      return true;
    bool First = true;
    for (uint32_t P : Preds[BId]) {
      if (!Reached[P])
        continue;
      if (First)
        In = Out[P];
      else
        In.intersectWith(Out[P]);
      First = false;
    }
    return !First;
  };

  std::deque<uint32_t> Work;
  Work.push_back(F.entry());
  std::vector<bool> InWork(NB, false);
  InWork[F.entry()] = true;
  BitVector In(NR);
  while (!Work.empty()) {
    uint32_t BId = Work.front();
    Work.pop_front();
    InWork[BId] = false;
    bool FirstVisit = !Reached[BId];
    Reached[BId] = true;
    if (!InOf(BId, In))
      continue; // no reached predecessor yet

    BitVector NewOut = In;
    for (const Instruction &I : F.block(BId).Insts)
      if (I.hasDef())
        NewOut.set(I.defReg());
    if (!(NewOut == Out[BId]) || FirstVisit) {
      Out[BId] = NewOut;
      for (uint32_t S : F.block(BId).successors())
        if (!InWork[S]) {
          InWork[S] = true;
          Work.push_back(S);
        }
    }
  }

  // Re-walk each reached block checking uses against the In set.
  std::vector<std::string> Errors;
  for (const BasicBlock &B : F.blocks()) {
    if (!Reached[B.Id])
      continue;
    InOf(B.Id, In);
    for (const Instruction &I : B.Insts) {
      I.forEachUse([&](VRegId R) {
        if (!In.test(R))
          Errors.push_back("@" + F.name() + ": in " + B.Name + ": '" +
                           printInstruction(M, F, I) + "': register %" +
                           F.vreg(R).Name + " may be used before definition");
      });
      if (I.hasDef())
        In.set(I.defReg());
    }
  }
  return Errors;
}
