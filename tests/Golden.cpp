//===- tests/Golden.cpp - Line-by-line golden files -----------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Golden.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>

void ra::checkGolden(const std::string &Name,
                     const std::vector<std::string> &Actual) {
  const std::string Path = std::string(RA_TESTS_DIR) + "/golden/" + Name;
  if (std::getenv("RA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    for (const std::string &L : Actual)
      Out << L << "\n";
    return;
  }
  std::ifstream In(Path);
  std::vector<std::string> Golden;
  for (std::string L; std::getline(In, L);)
    Golden.push_back(L);
  ASSERT_FALSE(Golden.empty())
      << Path << " is missing; regenerate with RA_UPDATE_GOLDEN=1";
  unsigned Shown = 0;
  for (size_t I = 0; I < std::max(Golden.size(), Actual.size()); ++I) {
    const std::string G = I < Golden.size() ? Golden[I] : "<none>";
    const std::string A = I < Actual.size() ? Actual[I] : "<none>";
    if (G != A && Shown++ < 20)
      ADD_FAILURE() << Name << ":" << I + 1 << "\n  golden: " << G
                    << "\n  actual: " << A;
  }
  EXPECT_EQ(Golden.size(), Actual.size()) << Name;
}
