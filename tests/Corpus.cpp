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

std::vector<std::string> ra::corpusFileNames() {
  std::vector<std::string> Names;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RA_TESTS_DIR) + "/corpus"))
    if (E.path().extension() == ".ral")
      Names.push_back(E.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

std::string ra::corpusText(const std::string &Name) {
  std::ifstream In(std::string(RA_TESTS_DIR) + "/corpus/" + Name);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

void ra::forEachCorpusFunction(
    const std::function<void(Module &, Function &, const std::string &)>
        &Fn) {
  std::vector<std::string> Files = corpusFileNames();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Name : Files) {
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(corpusText(Name), M, Error)) << Name << ": "
                                                         << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      Fn(M, M.function(I), Name);
  }
}
