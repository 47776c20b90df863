//===- regalloc/Metrics.cpp - Per-range metrics table rendering -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// CSV rendering of the per-live-range metrics table. The table itself
// is collected inside the Figure 4 loop (Allocator.cpp); this file only
// turns rows into deterministic text for `rac --metrics=out.csv` and
// the golden-file tests that pin the format.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include <cstdio>

using namespace ra;

const char *ra::rangeDecisionName(RangeMetrics::Decision D) {
  switch (D) {
  case RangeMetrics::Decision::Colored:   return "colored";
  case RangeMetrics::Decision::Spilled:   return "spilled";
  case RangeMetrics::Decision::Coalesced: return "coalesced";
  case RangeMetrics::Decision::Split:     return "split";
  }
  return "unknown";
}

namespace {

/// Deterministic short rendering of a double ("120", "1.5", "1e+06").
/// Infinite spill cost (spill temporaries) prints as "inf".
std::string num(double V) {
  if (V == InterferenceGraph::InfiniteCost)
    return "inf";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// CSV-quotes a field if it contains a comma or quote (range names are
/// normally plain identifiers; this keeps the dump well-formed anyway).
std::string field(const std::string &S) {
  if (S.find_first_of(",\"\n") == std::string::npos)
    return S;
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

} // namespace

std::string ra::metricsCsvHeader() {
  return "function,pass,name,class,degree,area,cost,cost_per_degree,"
         "loop_depth,decision,color,coalesced_into\n";
}

void ra::appendMetricsCsv(std::string &Out, const std::string &FunctionName,
                          const std::vector<RangeMetrics> &Metrics) {
  for (const RangeMetrics &R : Metrics) {
    Out += field(FunctionName);
    Out += "," + std::to_string(R.Pass);
    Out += "," + field(R.Name);
    Out += "," + std::string(regClassName(R.Class));
    Out += "," + std::to_string(R.Degree);
    Out += "," + num(R.Area);
    Out += "," + num(R.Cost);
    Out += "," + num(R.CostPerDegree);
    Out += "," + std::to_string(R.LoopDepth);
    Out += "," + std::string(rangeDecisionName(R.D));
    Out += "," + (R.Color >= 0 ? std::to_string(R.Color) : std::string("-"));
    Out += "," + field(R.CoalescedInto);
    Out += "\n";
  }
}
