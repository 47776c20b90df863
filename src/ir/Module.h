//===- ir/Module.h - Arrays and functions ----------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module owns the memory symbols (arrays) a program operates on and
/// the functions that reference them. Arrays stand in for the FORTRAN
/// COMMON blocks and dummy array arguments of the paper's benchmark
/// programs; the simulator materializes them as typed memory.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_MODULE_H
#define RA_IR_MODULE_H

#include "ir/Function.h"

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ra {

/// One module-level array symbol.
struct ArrayInfo {
  std::string Name;
  uint32_t Size = 0;               ///< Element count.
  RegClass Elem = RegClass::Float; ///< Element type (Int or Float).
};

/// Container for a program: arrays plus functions.
class Module {
public:
  /// Declares an array of \p Size elements of type \p Elem.
  uint32_t newArray(std::string Name, uint32_t Size, RegClass Elem) {
    Arrays.push_back({std::move(Name), Size, Elem});
    return Arrays.size() - 1;
  }

  unsigned numArrays() const { return Arrays.size(); }

  const ArrayInfo &array(uint32_t Id) const {
    assert(Id < Arrays.size() && "array id out of range");
    return Arrays[Id];
  }

  /// Finds an array by name; returns ~0u when absent.
  uint32_t findArray(std::string_view Name) const {
    for (uint32_t I = 0, E = Arrays.size(); I != E; ++I)
      if (Arrays[I].Name == Name)
        return I;
    return ~0u;
  }

  /// Creates an empty function owned by this module.
  Function &newFunction(std::string Name) {
    Funcs.push_back(std::make_unique<Function>(std::move(Name)));
    return *Funcs.back();
  }

  unsigned numFunctions() const { return Funcs.size(); }

  Function &function(unsigned I) {
    assert(I < Funcs.size() && "function index out of range");
    return *Funcs[I];
  }

  const Function &function(unsigned I) const {
    assert(I < Funcs.size() && "function index out of range");
    return *Funcs[I];
  }

  /// Finds a function by name; returns nullptr when absent.
  Function *findFunction(const std::string &Name) {
    for (auto &F : Funcs)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

private:
  std::vector<ArrayInfo> Arrays;
  std::vector<std::unique_ptr<Function>> Funcs;
};

} // namespace ra

#endif // RA_IR_MODULE_H
