//===- tests/Corpus.h - The fuzz corpus as test input -----------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checked-in ralfuzz corpus (tests/corpus/*.ral) as an input set for
/// the differential tests: every file parsed, every function handed to
/// the caller.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_CORPUS_H
#define RA_TESTS_CORPUS_H

#include "ir/Module.h"

#include <functional>
#include <string>
#include <vector>

namespace ra {

/// The tests/corpus/*.ral file names (without the directory), sorted.
std::vector<std::string> corpusFileNames();

/// The text of tests/corpus/<\p Name>.
std::string corpusText(const std::string &Name);

/// Parses every tests/corpus/*.ral file in path order and calls
/// \p Fn(M, F, FileName) for each function F of its module M. Fails
/// the calling test when the corpus is empty or a file does not parse.
void forEachCorpusFunction(
    const std::function<void(Module &, Function &, const std::string &)>
        &Fn);

} // namespace ra

#endif // RA_TESTS_CORPUS_H
