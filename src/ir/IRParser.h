//===- ir/IRParser.h - Textual IR input ------------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual IR syntax produced by IRPrinter. Used by tests and
/// examples to write small programs directly, and to round-trip modules.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_IRPARSER_H
#define RA_IR_IRPARSER_H

#include "ir/Module.h"

#include <string>
#include <string_view>

namespace ra {

/// Parses \p Text into \p M (which should be empty). On failure returns
/// false and stores a "line N: message" diagnostic in \p Error.
bool parseModule(const std::string &Text, Module &M, std::string &Error);

/// True when \p Name reads back as the name of an @array or @function:
/// one or more of the lexer's name bytes, [A-Za-z0-9_.].
bool isParsableName(std::string_view Name);

} // namespace ra

#endif // RA_IR_IRPARSER_H
