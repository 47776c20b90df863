//===- analysis/InstrNumbering.cpp - Linear instruction numbers -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/InstrNumbering.h"

using namespace ra;

InstrNumbering InstrNumbering::compute(const Function &F) {
  InstrNumbering N;
  N.FirstInst.resize(F.numBlocks());
  N.InstCount.resize(F.numBlocks());
  uint32_t Next = 0;
  for (const BasicBlock &B : F.blocks()) {
    N.FirstInst[B.Id] = Next;
    N.InstCount[B.Id] = B.Insts.size();
    Next += B.Insts.size();
  }
  return N;
}
