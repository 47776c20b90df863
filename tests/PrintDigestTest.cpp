//===- tests/PrintDigestTest.cpp - The printer's bytes pinned -------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins every byte printModule writes for a wide input set, so a faster
// printer (or parser) must reproduce the text exactly. Each input's text
// is hashed (FNV-1a, 64 bits) into one line of
// tests/golden/print_digest.golden, "<label> <bytes> <hash>", and so is
// the text printed again after a parse of the first, which adds parsed
// names (dotted, "%x.3.3") and the printer's own literals read back:
//
//  - every Figure 5 routine as built, and after optimization and chaitin,
//    briggs and linear-scan allocation at 16+8 and 6+4 (spill.ld and
//    spill.st);
//  - every corpus program as parsed, and allocated the same ways at 4+3;
//  - the mega family without mega.ramp.50k, and a 75-region random stress
//    function;
//  - a built module of literal and name edges: the int64 extremes,
//    negative immediates, a subnormal, -0.0, integral floats, names the
//    printer must sanitize, and an empty name.
//
// Regenerate on purpose with
//   RA_UPDATE_GOLDEN=1 build/tests/ra_tests --gtest_filter='PrintDigest*'
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Golden.h"

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "service/ContentHash.h"
#include "workloads/MegaKernel.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

using namespace ra;

namespace {

/// The literal and name edges no generated workload reaches.
Function &buildEdges(Module &M) {
  uint32_t Ints = M.newArray("ints", 4, RegClass::Int);
  uint32_t Flts = M.newArray("flts", 4, RegClass::Float);
  Function &F = M.newFunction("edges");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry-block"), Exit = B.newBlock("");
  B.setInsertPoint(Entry);
  VRegId Lo = B.movI(std::numeric_limits<int64_t>::min(), B.iReg("lo"));
  VRegId Hi = B.movI(std::numeric_limits<int64_t>::max(), B.iReg("hi$"));
  VRegId Neg = B.addI(Lo, -17, B.iReg("a.b.c"));
  VRegId Idx = B.movI(0, B.iReg(""));
  B.mulI(Hi, -1, B.iReg("_under_score"));
  VRegId Tiny = B.movF(std::numeric_limits<double>::denorm_min(), B.fReg("t"));
  VRegId Zero = B.movF(-0.0, B.fReg("-"));
  VRegId Whole = B.movF(3.0, B.fReg("whole"));
  VRegId Big = B.movF(1e300, B.fReg("big"));
  VRegId Third = B.movF(1.0 / 3.0, B.fReg("third"));
  B.store(Ints, Idx, Neg);
  B.store(Flts, Idx, B.fadd(Tiny, Zero));
  B.store(Flts, Idx, B.fmul(Whole, Big));
  B.br(CmpKind::LE, Third, Whole, Exit, Exit);
  B.setInsertPoint(Exit);
  B.ret(B.load(Ints, Idx));
  return F;
}

struct DigestLines {
  std::vector<std::string> Lines;

  void add(const std::string &Label, const std::string &Text) {
    char Hash[17];
    std::snprintf(Hash, sizeof(Hash), "%016llx",
                  (unsigned long long)service::fnv1a64(Text.data(),
                                                       Text.size()));
    Lines.push_back(Label + " " + std::to_string(Text.size()) + " " + Hash);
  }

  /// Adds \p M's text, and the text of its print -> parse -> print.
  void addModule(const std::string &Label, const Module &M) {
    const std::string Text = printModule(M);
    add(Label, Text);
    Module Again;
    std::string Err;
    ASSERT_TRUE(parseModule(Text, Again, Err)) << Label << ": " << Err;
    add(Label + ".reparsed", printModule(Again));
  }
};

/// \p Build's module after optimization and allocation by each of the
/// three allocators at each register file of \p Files.
void addAllocated(DigestLines &D, const std::string &Label,
                  const std::function<Function &(Module &)> &Build,
                  std::initializer_list<std::pair<unsigned, unsigned>> Files) {
  for (const char *Allocator : {"chaitin", "briggs", "linear-scan"})
    for (auto [Int, Flt] : Files) {
      Module M;
      Function &F = Build(M);
      optimizeFunction(F);
      AllocatorConfig C;
      ASSERT_TRUE(parseAllocatorName(Allocator, C.B, C.H));
      C.Machine = MachineInfo(Int, Flt);
      allocateRegisters(F, C);
      D.addModule(Label + "." + Allocator + "." + std::to_string(Int) + "+" +
                      std::to_string(Flt),
                  M);
    }
}

TEST(PrintDigestTest, PrintedBytesMatchGolden) {
  DigestLines D;
  for (const Workload &W : allWorkloads()) {
    Module M;
    W.Build(M);
    D.addModule("fig5." + W.Routine, M);
    addAllocated(D, "fig5." + W.Routine, W.Build, {{16, 8}, {6, 4}});
  }
  for (const std::string &Name : corpusFileNames()) {
    auto Parse = [&](Module &M) -> Function & {
      std::string Err;
      EXPECT_TRUE(parseModule(corpusText(Name), M, Err)) << Name << ": " << Err;
      return M.function(0);
    };
    Module M;
    Parse(M);
    D.addModule("corpus." + Name, M);
    addAllocated(D, "corpus." + Name, Parse, {{4, 3}});
  }
  for (const MegaKernel &K : megaKernelFamily()) {
    if (K.Name == "mega.ramp.50k")
      continue;
    Module M;
    K.Build(M);
    D.addModule(K.Name, M);
  }
  {
    Module M;
    buildRandomStress(M, 20260808, 75, "stress75");
    D.addModule("stress75", M);
  }
  {
    Module M;
    buildEdges(M);
    D.addModule("edges", M);
  }
  checkGolden("print_digest.golden", D.Lines);
}

} // namespace
