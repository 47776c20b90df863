//===- tests/GraphDumpTest.cpp - Graphviz dump golden tests ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins dumpGraphviz output with golden files: node ordering must be
// stable (nodes appear in graph-node order, edges lexicographically by
// node pair), so rebuilding the same function always renders the same
// DOT text. Comparisons run through the shared normalizing comparator
// that masks volatile fields (timestamps, thread ids) — DOT output has
// none today, and the comparator keeps it that way if annotations grow.
// Regenerate goldens with RA_UPDATE_GOLDEN=1.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/GraphDump.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace ra;

namespace {

/// Same normalizing comparator as TraceTest.cpp: masks ts/dur/tid
/// values so only deterministic structure is compared.
std::string maskVolatile(std::string S) {
  for (const char *Key : {"\"ts\":", "\"dur\":", "\"tid\":"}) {
    size_t Pos = 0;
    while ((Pos = S.find(Key, Pos)) != std::string::npos) {
      Pos += std::strlen(Key);
      size_t End = Pos;
      while (End < S.size() &&
             (std::isdigit(static_cast<unsigned char>(S[End])) ||
              S[End] == '.'))
        ++End;
      S.replace(Pos, End - Pos, "_");
      ++Pos;
    }
  }
  return S;
}

void compareGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(RA_TESTS_DIR) + "/golden/" + Name;
  if (std::getenv("RA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << Path
                  << " missing — regenerate with RA_UPDATE_GOLDEN=1";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(maskVolatile(Buffer.str()), maskVolatile(Actual))
      << "golden mismatch for " << Name
      << " — regenerate with RA_UPDATE_GOLDEN=1 if intended";
}

/// The canned fib-shaped function every dump in this file renders.
ClassGraph builtGraph(Module &M) {
  Function &F = M.newFunction("fib");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");

  B.setInsertPoint(Entry);
  VRegId A = F.newVReg(RegClass::Int, "a");
  B.movI(0, A);
  VRegId Bv = F.newVReg(RegClass::Int, "b");
  B.movI(1, Bv);
  VRegId I = F.newVReg(RegClass::Int, "i");
  B.movI(0, I);
  VRegId N = F.newVReg(RegClass::Int, "n");
  B.movI(10, N);
  B.jmp(Head);

  B.setInsertPoint(Head);
  B.br(CmpKind::LT, I, N, Body, Exit);

  B.setInsertPoint(Body);
  VRegId T = F.newVReg(RegClass::Int, "t");
  B.add(A, Bv, T);
  B.copy(Bv, A);
  B.copy(T, Bv);
  B.addI(I, 1, I);
  B.jmp(Head);

  B.setInsertPoint(Exit);
  B.ret(A);

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  return std::move(buildInterferenceGraphs(F, LV)[unsigned(RegClass::Int)]);
}

TEST(GraphDumpGolden, UncoloredDumpMatchesGolden) {
  Module M;
  ClassGraph CG = builtGraph(M);
  compareGolden("graphdump_uncolored.golden",
                dumpGraphviz(CG.Graph, nullptr, "fib",
                             nodeLabels(M.function(0), CG)));
}

TEST(GraphDumpGolden, ColoredDumpMatchesGolden) {
  Module M;
  ClassGraph CG = builtGraph(M);
  ColoringResult R = colorGraph(CG.Graph, /*K=*/3, Heuristic::Briggs);
  compareGolden("graphdump_colored.golden",
                dumpGraphviz(CG.Graph, &R, "fib",
                             nodeLabels(M.function(0), CG)));
}

TEST(GraphDumpGolden, NodeOrderingIsStableAcrossRebuilds) {
  Module M1, M2;
  ClassGraph G1 = builtGraph(M1);
  ClassGraph G2 = builtGraph(M2);
  EXPECT_EQ(dumpGraphviz(G1.Graph, nullptr, "fib"),
            dumpGraphviz(G2.Graph, nullptr, "fib"));

  ColoringResult R1 = colorGraph(G1.Graph, 3, Heuristic::Briggs);
  ColoringResult R2 = colorGraph(G2.Graph, 3, Heuristic::Briggs);
  EXPECT_EQ(dumpGraphviz(G1.Graph, &R1, "fib"),
            dumpGraphviz(G2.Graph, &R2, "fib"));
}

} // namespace
