//===- tests/ConfigMutationTest.cpp - Mutated config lines never misread --===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Config lines and request frames from outside must never crash, hang or
// be silently misread. Rendered WireConfig lines (the default and each
// shared flag at its other value) and AllocRequestMsg payloads carrying
// them are mutated with seeded byte flips, truncations, repeated keys,
// unknown keys (the cache-key tokens that are not wire keys among them)
// and the edge values of each row's value kind, all read from the
// settings table. Every mutant must either parse, and then re-render to
// a line that parses to the same config, or fail with an invalid-input
// Status that names the key of the token it rejects. Under the sanitizer
// build this also checks the readers for memory errors.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ra;
using namespace ra::service;

namespace {

std::vector<const Setting *> wireRows() {
  std::vector<const Setting *> Rows;
  for (const Setting &S : settings())
    if (S.onWire())
      Rows.push_back(&S);
  return Rows;
}

/// Values on and just past the edges of \p S's kind.
std::vector<std::string> edgeValues(const Setting &S) {
  const std::string Max = std::to_string(WireConfig::MaxMemBudgetMb);
  switch (S.Member.index()) {
  case 0: // bool
    return {"0", "1", "2", "", "-1", "01", "true"};
  case 1: // unsigned register count
    return {"0", "1", "4294967295", "4294967296", "+1", "-1", "1e3", "0x10",
            "007"};
  case 2: // uint64_t MB
    return {"0", Max, std::to_string(WireConfig::MaxMemBudgetMb + 1),
            "18446744073709551615", "18446744073709551616", "-0"};
  case 3: // double ms
    return {"0", "-0", "0.5", "1e308", "1e309", "inf", "nan", "-1",
            "4e-324", "1e-400", ".5", "5.", "0x1p3"};
  default: // allocator name
    return {"chaitin", "briggs", "matula-beck", "linear-scan", "", "Briggs",
            "linear_scan"};
  }
}

/// The default line and each shared flag at its other value.
std::vector<std::string> seedLines() {
  std::vector<std::string> Lines{WireConfig().render()};
  for (const Setting *S : wireRows()) {
    WireConfig W;
    EXPECT_TRUE(W.parse(std::string(S->Key) + "=" + S->Other).ok());
    Lines.push_back(W.render());
  }
  return Lines;
}

std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  for (size_t Pos = 0; Pos < Line.size();) {
    size_t End = std::min(Line.find(' ', Pos), Line.size());
    if (End > Pos)
      Out.push_back(Line.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

std::string join(const std::vector<std::string> &Tokens) {
  std::string Out;
  for (const std::string &T : Tokens)
    Out += (Out.empty() ? "" : " ") + T;
  return Out;
}

/// Applies one or two seeded mutations to \p Line.
std::string mutate(std::string Line, Rng &R) {
  static const char Interesting[] = " =_-.019azAZ+e";
  const std::vector<const Setting *> Wire = wireRows();
  for (unsigned N = 1 + R.nextBelow(2); N; --N) {
    std::vector<std::string> T = tokens(Line);
    switch (R.nextBelow(5)) {
    case 0: // byte flips
      for (unsigned K = 1 + R.nextBelow(3); K && !Line.empty(); --K)
        Line[R.nextBelow(Line.size())] =
            R.nextBool() ? Interesting[R.nextBelow(sizeof(Interesting) - 1)]
                         : char(R.nextBelow(256));
      break;
    case 1: // truncation
      Line.resize(R.nextBelow(Line.size() + 1));
      break;
    case 2: { // a repeated key, at its own value or at an edge value
      const Setting &S = *Wire[R.nextBelow(Wire.size())];
      std::vector<std::string> Edges = edgeValues(S);
      T.insert(T.begin() + R.nextBelow(T.size() + 1),
               std::string(S.Key) + "=" +
                   (R.nextBool() ? S.Other : Edges[R.nextBelow(Edges.size())]));
      Line = join(T);
      break;
    }
    case 3: { // an unknown key: a cache-key token that is not a wire key,
              // a near miss of a wire key, or an empty key
      const Setting &S = settings()[R.nextBelow(settings().size())];
      std::string Key = S.Key ? S.Key : "";
      if (S.onWire())
        Key += R.nextBool() ? "x" : "-";
      T.insert(T.begin() + R.nextBelow(T.size() + 1), Key + "=1");
      Line = join(T);
      break;
    }
    case 4: { // a wire key's value replaced by an edge value of its kind
      const Setting &S = *Wire[R.nextBelow(Wire.size())];
      std::vector<std::string> Edges = edgeValues(S);
      for (std::string &Tok : T)
        if (Tok.rfind(std::string(S.Key) + "=", 0) == 0)
          Tok = std::string(S.Key) + "=" + Edges[R.nextBelow(Edges.size())];
      Line = join(T);
      break;
    }
    }
  }
  return Line;
}

/// The key of the first token of \p Line that does not parse on its
/// own: the text before its '=', or the whole token without one.
std::string rejectedKey(const std::string &Line) {
  for (const std::string &T : tokens(Line))
    if (!WireConfig().parse(T).ok())
      return T.substr(0, T.find('='));
  ADD_FAILURE() << "every token of '" << Line << "' parses alone";
  return "";
}

/// Checks the outcome \p S of parsing \p Line into \p W.
void checkOutcome(const std::string &Line, const WireConfig &W,
                  const Status &S) {
  if (S.ok()) {
    const std::string Again = W.render();
    WireConfig Back;
    ASSERT_TRUE(Back.parse(Again).ok()) << Line << " -> " << Again;
    EXPECT_EQ(Back.render(), Again) << Line;
    return;
  }
  EXPECT_EQ(S.code(), StatusCode::InvalidInput) << Line;
  const std::string Key = rejectedKey(Line);
  EXPECT_NE(S.toString().find(Key.empty() ? "''" : Key), std::string::npos)
      << "'" << Line << "': " << S.toString() << " names no key";
}

TEST(ConfigMutationTest, MutatedLinesParseOrNameTheirKey) {
  const std::vector<std::string> Seeds = seedLines();
  Rng R(20261022);
  unsigned Accepted = 0, Rejected = 0;
  for (unsigned N = 0; N < 3000; ++N) {
    const std::string Line = mutate(Seeds[N % Seeds.size()], R);
    WireConfig W;
    Status S = W.parse(Line);
    checkOutcome(Line, W, S);
    ++(S.ok() ? Accepted : Rejected);
  }
  // Both outcomes must be common, or the mutations are too weak or too
  // wild: 508 lines parse and 2,492 are rejected.
  EXPECT_GT(Accepted, 250u);
  EXPECT_GT(Rejected, 1200u);
}

/// \p S as an AllocRequestMsg payload writes a string: u32-LE length,
/// then the bytes.
std::string lengthPrefixed(const std::string &S) {
  std::string Out;
  for (int I = 0; I < 4; ++I)
    Out += char((S.size() >> (8 * I)) & 0xFF);
  return Out + S;
}

TEST(ConfigMutationTest, MutatedRequestPayloadsDecodeOrFail) {
  const std::vector<std::string> Seeds = seedLines();
  Rng R(20261023);
  unsigned Decoded = 0, Truncated = 0, BadConfig = 0;
  for (unsigned N = 0; N < 1500; ++N) {
    // The line goes out as it is, not as a parsed config would render it.
    const std::string &Seed = Seeds[N % Seeds.size()];
    std::string Payload =
        lengthPrefixed(R.nextBool() ? mutate(Seed, R) : Seed) +
        lengthPrefixed("module {\n}\n");
    switch (R.nextBelow(4)) {
    case 0: // as sent
      break;
    case 1: // byte flips, the length prefixes among them
      for (unsigned K = 1 + R.nextBelow(3); K; --K)
        Payload[R.nextBelow(4) == 0 ? R.nextBelow(4)
                                    : R.nextBelow(Payload.size())] =
            char(R.nextBelow(256));
      break;
    case 2: // truncation or trailing bytes
      if (R.nextBool())
        Payload.resize(R.nextBelow(Payload.size()));
      else
        Payload += char(R.nextBelow(256));
      break;
    default: // a config length past the payload
      Payload[3] = char(0x80 | R.nextBelow(0x80));
      break;
    }
    AllocRequestMsg Msg;
    Status S = Msg.decode(Payload);
    if (S.ok()) {
      ++Decoded;
      AllocRequestMsg Back;
      ASSERT_TRUE(Back.decode(Msg.encode()).ok());
      EXPECT_EQ(Back.Config.render(), Msg.Config.render());
      EXPECT_EQ(Back.Source, Msg.Source);
      continue;
    }
    EXPECT_EQ(S.code(), StatusCode::InvalidInput);
    if (S.toString().find("truncated or overlong alloc-request payload") !=
        std::string::npos) {
      ++Truncated;
      continue;
    }
    // The frame held two strings, so the config line was rejected: it
    // must name the key, as a line would.
    ++BadConfig;
    uint32_t Len = 0;
    for (int I = 0; I < 4; ++I)
      Len |= uint32_t(uint8_t(Payload[I])) << (8 * I);
    ASSERT_LE(size_t(4) + Len, Payload.size());
    checkOutcome(Payload.substr(4, Len), Msg.Config, S);
  }
  // 212 decode, 950 are cut short and 338 carry a rejected line.
  EXPECT_GT(Decoded, 100u);
  EXPECT_GT(Truncated, 500u);
  EXPECT_GT(BadConfig, 150u);
}

} // namespace
