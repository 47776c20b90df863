//===- tests/RenumberReference.h - Dense renumbering reference --*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for live-range renumbering: the original dense
/// reaching-definitions solver (one Gen/Kill/In/Out bit vector per block,
/// sized to the number of definitions). RenumberDiffTest holds the
/// production renumberer in analysis/Renumber.cpp to byte-identical
/// output against it.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_RENUMBERREFERENCE_H
#define RA_TESTS_RENUMBERREFERENCE_H

#include "analysis/Renumber.h"

namespace ra {

/// Same contract as renumberLiveRanges, solved with dense reaching
/// definitions.
RenumberStats renumberLiveRangesReference(Function &F, const CFG &G);

} // namespace ra

#endif // RA_TESTS_RENUMBERREFERENCE_H
