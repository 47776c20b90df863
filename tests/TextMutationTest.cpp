//===- tests/TextMutationTest.cpp - Mutated IR text never crashes ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// IR text from outside must never crash or hang the front end. The
// corpus programs and the printed Figure 5 modules (as built, and after
// a tight Briggs allocation, so spill code is in the mix) are mutated
// with seeded byte flips, token deletions, splices, truncations and
// moved lines.
// Every mutant must either be rejected with a "line N: " diagnostic
// whose N lies within the text (or one past its last line, at its end),
// or parse and run through verifyModule. Under the sanitizer build this
// also checks the lexer, the parser and the verifier for memory errors.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

using namespace ra;

namespace {

std::vector<std::string> seedTexts() {
  std::vector<std::string> Texts;
  for (const std::string &Name : corpusFileNames())
    Texts.push_back(corpusText(Name));
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    Texts.push_back(printModule(M));
    optimizeFunction(F);
    AllocatorConfig C;
    C.Machine = MachineInfo(6, 4);
    allocateRegisters(F, C);
    Texts.push_back(printModule(M));
  }
  return Texts;
}

/// [Begin, End) of a random whitespace-delimited token of \p S; empty
/// when \p S has none at the position drawn.
std::pair<size_t, size_t> randomToken(const std::string &S, Rng &R) {
  size_t Begin = R.nextBelow(S.size());
  auto Space = [&](size_t I) {
    return std::isspace(static_cast<unsigned char>(S[I])) != 0;
  };
  while (Begin < S.size() && Space(Begin))
    ++Begin;
  while (Begin > 0 && !Space(Begin - 1))
    --Begin;
  size_t End = Begin;
  while (End < S.size() && !Space(End))
    ++End;
  return {Begin, End};
}

/// Applies one or two seeded mutations to \p S.
std::string mutate(std::string S, const std::vector<std::string> &Seeds,
                   Rng &R) {
  static const char Interesting[] = "%@:=,[]{}-+.eE0123456789 \n;/_xbr";
  for (unsigned N = 1 + R.nextBelow(2); N && !S.empty(); --N) {
    switch (R.nextBelow(5)) {
    case 0: // byte flips: structural characters half the time
      for (unsigned K = 1 + R.nextBelow(4); K; --K)
        S[R.nextBelow(S.size())] =
            R.nextBelow(2) ? Interesting[R.nextBelow(sizeof(Interesting) - 1)]
                           : char(R.nextBelow(256));
      break;
    case 1: { // token deletion
      auto [Begin, End] = randomToken(S, R);
      S.erase(Begin, End - Begin);
      break;
    }
    case 2: { // splice: a piece of some seed text at a random position
      const std::string &From = Seeds[R.nextBelow(Seeds.size())];
      size_t At = R.nextBelow(From.size());
      std::string Piece = From.substr(At, 1 + R.nextBelow(160));
      S.insert(R.nextBelow(S.size() + 1), Piece);
      break;
    }
    case 3: // truncation
      S.resize(R.nextBelow(S.size()));
      break;
    case 4: { // a whole line moved, which often still parses
      size_t Begin = S.rfind('\n', R.nextBelow(S.size()));
      Begin = Begin == std::string::npos ? 0 : Begin + 1;
      size_t End = std::min(S.find('\n', Begin), S.size() - 1) + 1;
      std::string Line = S.substr(Begin, End - Begin);
      S.erase(Begin, End - Begin);
      size_t To = S.rfind('\n', R.nextBelow(S.size() + 1));
      S.insert(To == std::string::npos ? 0 : To + 1, Line);
      break;
    }
    }
  }
  return S;
}

TEST(TextMutationTest, MutantsParseOrFailAtALineOfTheText) {
  const std::vector<std::string> Seeds = seedTexts();
  ASSERT_GE(Seeds.size(), 60u);
  Rng R(20261020);
  unsigned Parsed = 0, Verified = 0, Rejected = 0;
  for (unsigned N = 0; N < 2400; ++N) {
    std::string Text = mutate(Seeds[N % Seeds.size()], Seeds, R);
    Module M;
    std::string Error;
    if (parseModule(Text, M, Error)) {
      Verified += verifyModule(M).empty();
      ++Parsed;
      continue;
    }
    ++Rejected;
    const size_t Lines = std::count(Text.begin(), Text.end(), '\n');
    ASSERT_EQ(Error.rfind("line ", 0), 0u) << "mutant " << N << ": " << Error;
    char *End = nullptr;
    unsigned long Line = std::strtoul(Error.c_str() + 5, &End, 10);
    EXPECT_TRUE(std::strncmp(End, ": ", 2) == 0 && Line >= 1 &&
                Line <= Lines + 1)
        << "mutant " << N << " (" << Lines << " newlines): " << Error;
  }
  // Every outcome must occur, or the mutations are too weak or too wild:
  // 125 mutants parse (52 of them verify clean) and 2,275 are rejected.
  EXPECT_GT(Parsed, 50u);
  EXPECT_GT(Verified, 20u);
  EXPECT_GT(Parsed - Verified, 20u);
  EXPECT_GT(Rejected, 1000u);
}

} // namespace
