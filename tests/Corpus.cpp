//===- tests/Corpus.cpp - The fuzz corpus as test input -------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "ir/IRParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace ra;

void ra::forEachCorpusFunction(
    const std::function<void(Module &, Function &, const std::string &)>
        &Fn) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RA_TESTS_DIR) + "/corpus"))
    if (E.path().extension() == ".ral")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const std::filesystem::path &P : Files) {
    std::ifstream In(P);
    std::stringstream Text;
    Text << In.rdbuf();
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(Text.str(), M, Error)) << P << ": " << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      Fn(M, M.function(I), P.filename().string());
  }
}
