//===- tests/Golden.h - Line-by-line golden files ---------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares a test's output lines with a file under tests/golden/, or
/// rewrites the file on purpose when RA_UPDATE_GOLDEN is set.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_GOLDEN_H
#define RA_TESTS_GOLDEN_H

#include <string>
#include <vector>

namespace ra {

/// Compares \p Actual with tests/golden/<\p Name> line by line, reporting
/// the first 20 differing lines, or rewrites the file when
/// RA_UPDATE_GOLDEN is set.
void checkGolden(const std::string &Name,
                 const std::vector<std::string> &Actual);

} // namespace ra

#endif // RA_TESTS_GOLDEN_H
