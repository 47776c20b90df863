//===- tests/Printers.h - gtest printer for Heuristic -----------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gtest prints a value through a PrintTo found by argument-dependent
/// lookup, and names each value-parameterized test after its printed
/// parameter. Without one, an enum prints as its raw bytes. Every test
/// file that prints a Heuristic includes this header, so all of them
/// instantiate the same printer.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_PRINTERS_H
#define RA_TESTS_PRINTERS_H

#include "regalloc/Coloring.h"

#include <ostream>

namespace ra {

inline void PrintTo(Heuristic H, std::ostream *OS) { *OS << heuristicName(H); }

} // namespace ra

#endif // RA_TESTS_PRINTERS_H
