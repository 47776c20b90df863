//===- tests/ContractTest.cpp - Allocation output contract golden ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins the allocation itself, not just its totals: every Figure 5
// routine and every tests/corpus program is optimized and allocated
// under each allocator (chaitin, briggs, matula-beck, linear-scan), with
// the audit on, at the RT/PC 16+8 file and at a tight 6+4 file. Each run
// contributes one line to tests/golden/contract.golden:
//
//   <input> <allocator> <int>+<flt> <outcome> passes=<n>
//       spills=<h0,h1,...> out=<h>
//
// where h_i is the FNV-1a 64 of pass i's spilled live-range names and
// out digests the printed rewritten function plus ColorOf and Pieces. A
// refactor that recolors a routine while keeping the spill totals fails
// here, naming the input, allocator, file and first differing pass.
//
// One test per allocator so ctest -j runs them in parallel. Regenerate
// with RA_UPDATE_GOLDEN=1 from a single process, e.g.
//   RA_UPDATE_GOLDEN=1 build/tests/ra_tests --gtest_filter='*Contract*'
// Each test rewrites only its own allocator's lines.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "service/ContentHash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

using namespace ra;

namespace {

const std::string GoldenPath =
    std::string(RA_TESTS_DIR) + "/golden/contract.golden";

std::string hex(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, H);
  return Buf;
}

uint64_t digest(const std::string &S) {
  return service::fnv1a64(S.data(), S.size());
}

/// One allocation input: a name and a builder that fills a fresh module
/// and returns the function to allocate.
struct ContractInput {
  std::string Name;
  std::function<Function &(Module &)> Build;
};

std::vector<ContractInput> contractInputs() {
  std::vector<ContractInput> Inputs;
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
    std::string Source = Text.str();
    Inputs.push_back({"corpus/" + P.filename().string(),
                      [Source](Module &M) -> Function & {
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

/// Allocates \p In under \p Allocator at an \p Int + \p Flt file and
/// renders the golden line (without the trailing newline).
std::string contractLine(const ContractInput &In,
                         const std::string &Allocator, unsigned Int,
                         unsigned Flt) {
  Module M;
  Function &F = In.Build(M);
  optimizeFunction(F);
  AllocatorConfig C;
  EXPECT_TRUE(parseAllocatorName(Allocator, C.B, C.H));
  C.Machine = MachineInfo(Int, Flt);
  C.Audit = true;
  AllocationResult A = allocateRegisters(F, C);

  std::string Line = In.Name + " " + Allocator + " " + std::to_string(Int) +
                     "+" + std::to_string(Flt) + " " +
                     allocOutcomeName(A.Outcome) +
                     " passes=" + std::to_string(A.Stats.numPasses()) +
                     " spills=";
  for (size_t P = 0; P < A.Stats.Passes.size(); ++P) {
    std::string Names;
    for (const std::string &N : A.Stats.Passes[P].SpilledNames)
      Names += N + "\n";
    Line += (P ? "," : "") + hex(digest(Names));
  }
  std::string Out = printFunction(M, F) + "colors:";
  for (int32_t Color : A.ColorOf)
    Out += " " + std::to_string(Color);
  Out += "\npieces:";
  for (const PieceAssignment &P : A.Pieces)
    Out += " " + std::to_string(P.Reg) + "@" + std::to_string(P.From) + "-" +
           std::to_string(P.To) + "=" + std::to_string(P.PhysReg);
  return Line + " out=" + hex(digest(Out));
}

/// The "<input> <allocator> <file>" prefix that keys a golden line.
std::string lineKey(const std::string &Line) {
  size_t End = 0;
  for (int Field = 0; Field < 3 && End != std::string::npos; ++Field)
    End = Line.find(' ', End + (Field ? 1 : 0));
  return Line.substr(0, End);
}

std::string field(const std::string &Line, const std::string &Name) {
  size_t Pos = Line.find(" " + Name + "=");
  if (Pos == std::string::npos)
    return "";
  Pos += Name.size() + 2;
  return Line.substr(Pos, Line.find(' ', Pos) - Pos);
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Parts;
  std::stringstream SS(S);
  for (std::string P; std::getline(SS, P, ',');)
    Parts.push_back(P);
  return Parts;
}

/// Explains how \p Actual departs from \p Expected: the first pass
/// whose spill set differs, else the pass count, else the final output.
std::string describeMismatch(const std::string &Expected,
                             const std::string &Actual) {
  std::vector<std::string> E = splitCommas(field(Expected, "spills"));
  std::vector<std::string> A = splitCommas(field(Actual, "spills"));
  for (size_t P = 0; P < std::min(E.size(), A.size()); ++P)
    if (E[P] != A[P])
      return "first differing pass: " + std::to_string(P) +
             " (spilled names differ)";
  if (E.size() != A.size())
    return "first differing pass: " + std::to_string(std::min(E.size(),
                                                              A.size())) +
           " (pass count " + field(Expected, "passes") + " -> " +
           field(Actual, "passes") + ")";
  return "every pass spills the same names; the rewritten function, "
         "colors or pieces differ";
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

class ContractTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ContractTest, AllocationMatchesGolden) {
  const std::string Allocator = GetParam();
  const std::pair<unsigned, unsigned> Files[] = {{16, 8}, {6, 4}};

  std::vector<std::string> Actual;
  for (const ContractInput &In : contractInputs())
    for (auto [Int, Flt] : Files)
      Actual.push_back(contractLine(In, Allocator, Int, Flt));

  std::vector<std::string> Golden = readLines(GoldenPath);
  auto Mine = [&](const std::string &L) {
    return lineKey(L).find(" " + Allocator + " ") != std::string::npos;
  };

  if (std::getenv("RA_UPDATE_GOLDEN")) {
    Golden.erase(std::remove_if(Golden.begin(), Golden.end(), Mine),
                 Golden.end());
    Golden.insert(Golden.end(), Actual.begin(), Actual.end());
    std::sort(Golden.begin(), Golden.end());
    std::ofstream Out(GoldenPath);
    ASSERT_TRUE(Out) << "cannot write " << GoldenPath;
    for (const std::string &L : Golden)
      Out << L << "\n";
    return;
  }

  std::map<std::string, std::string> Expected;
  for (const std::string &L : Golden)
    if (Mine(L))
      Expected[lineKey(L)] = L;
  ASSERT_FALSE(Expected.empty())
      << GoldenPath << " has no " << Allocator
      << " lines — regenerate with RA_UPDATE_GOLDEN=1";
  EXPECT_EQ(Expected.size(), Actual.size())
      << "golden and run cover different inputs for " << Allocator;
  for (const std::string &L : Actual) {
    auto It = Expected.find(lineKey(L));
    if (It == Expected.end()) {
      ADD_FAILURE() << lineKey(L) << ": no golden line";
      continue;
    }
    EXPECT_EQ(It->second, L)
        << lineKey(L) << ": " << describeMismatch(It->second, L)
        << " — regenerate with RA_UPDATE_GOLDEN=1 if the change is "
           "intended";
  }
}

INSTANTIATE_TEST_SUITE_P(Allocators, ContractTest,
                         ::testing::Values("chaitin", "briggs",
                                           "matula-beck", "linear-scan"),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           std::replace(N.begin(), N.end(), '-', '_');
                           return N;
                         });

} // namespace
