//===- tests/PaperGuaranteeTest.cpp - Briggs vs Chaitin on real inputs ----===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's two guarantees (Section 3.2), checked on every Figure 5
// routine and every tests/corpus program, raw and optimized, with the
// audit on, at four register files:
//
//   1. Briggs's pass-1 spill set is a subset of Chaitin's: the
//      optimistic heuristic never spills a range Chaitin would keep;
//   2. when Chaitin's pass 1 spills nothing, Briggs produces the very
//      same allocation: identical printed function and ColorOf.
//
// ColoringTest and PropertyTest check both on random graphs and random
// programs; this file holds them on the inputs the paper measures. An
// input that breaks either is a finding, not a case to skip.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

using namespace ra;

namespace {

/// One allocation input: a name and a builder that fills a fresh module
/// and returns the function to allocate.
struct GuaranteeInput {
  std::string Name;
  std::function<Function &(Module &)> Build;
};

std::vector<GuaranteeInput> guaranteeInputs() {
  std::vector<GuaranteeInput> Inputs;
  for (const Workload &W : allWorkloads())
    Inputs.push_back({W.Routine, W.Build});
  std::vector<std::filesystem::path> Corpus;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RA_TESTS_DIR) + "/corpus"))
    if (E.path().extension() == ".ral")
      Corpus.push_back(E.path());
  std::sort(Corpus.begin(), Corpus.end());
  for (const std::filesystem::path &P : Corpus) {
    std::ifstream In(P);
    std::stringstream Text;
    Text << In.rdbuf();
    Inputs.push_back({"corpus/" + P.filename().string(),
                      [Source = Text.str()](Module &M) -> Function & {
                        std::string Error;
                        if (!parseModule(Source, M, Error) ||
                            M.numFunctions() != 1)
                          throw std::runtime_error("bad corpus file: " +
                                                   Error);
                        return M.function(0);
                      }});
  }
  return Inputs;
}

struct Allocated {
  AllocationResult A;
  std::string Printed;
};

Allocated allocate(const GuaranteeInput &In, bool Optimize, Heuristic H,
                   unsigned Int, unsigned Flt) {
  Module M;
  Function &F = In.Build(M);
  if (Optimize)
    optimizeFunction(F);
  AllocatorConfig C;
  C.H = H;
  C.Machine = MachineInfo(Int, Flt);
  C.Audit = true;
  Allocated R{allocateRegisters(F, C), ""};
  R.Printed = printFunction(M, F);
  return R;
}

struct RegisterFile {
  unsigned Int, Flt;
};

class PaperGuaranteeTest : public ::testing::TestWithParam<RegisterFile> {};

TEST_P(PaperGuaranteeTest, BriggsSpillsSubsetAndIdenticalWhenChaitinFits) {
  const RegisterFile RF = GetParam();
  unsigned ChaitinSpilled = 0, ChaitinFit = 0;
  for (const GuaranteeInput &In : guaranteeInputs())
    for (bool Optimize : {false, true}) {
      SCOPED_TRACE(In.Name + (Optimize ? " optimized" : " raw"));
      Allocated Chaitin =
          allocate(In, Optimize, Heuristic::Chaitin, RF.Int, RF.Flt);
      Allocated Briggs =
          allocate(In, Optimize, Heuristic::Briggs, RF.Int, RF.Flt);
      ASSERT_EQ(Chaitin.A.Outcome, AllocOutcome::Converged)
          << Chaitin.A.Diag.toString();
      ASSERT_EQ(Briggs.A.Outcome, AllocOutcome::Converged)
          << Briggs.A.Diag.toString();

      const std::vector<std::string> &CNames =
          Chaitin.A.Stats.Passes.front().SpilledNames;
      const std::set<std::string> ChaitinSet(CNames.begin(), CNames.end());
      for (const std::string &Name :
           Briggs.A.Stats.Passes.front().SpilledNames)
        EXPECT_TRUE(ChaitinSet.count(Name))
            << "briggs spilled '" << Name << "' in pass 1, chaitin did not";

      if (!CNames.empty()) {
        ++ChaitinSpilled;
        continue;
      }
      ++ChaitinFit;
      EXPECT_EQ(Chaitin.Printed, Briggs.Printed);
      EXPECT_EQ(Chaitin.A.ColorOf, Briggs.A.ColorOf);
    }
  // Both checks are live at every file: of the 72 configurations, 41
  // fit Chaitin's pass 1 at 16+8 and 4 still fit at 3+2.
  EXPECT_GT(ChaitinSpilled, 0u);
  EXPECT_GT(ChaitinFit, 0u);
}

// 16+8 is the RT/PC file; the tighter files make Chaitin spill on most
// inputs.
INSTANTIATE_TEST_SUITE_P(
    Files, PaperGuaranteeTest,
    ::testing::Values(RegisterFile{16, 8}, RegisterFile{6, 4},
                      RegisterFile{4, 2}, RegisterFile{3, 2}),
    [](const ::testing::TestParamInfo<RegisterFile> &Info) {
      return "Int" + std::to_string(Info.param.Int) + "Flt" +
             std::to_string(Info.param.Flt);
    });

} // namespace
