//===- sim/Simulator.h - Cycle-counting IR interpreter ---------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes IR functions against typed array memory, counting cycles
/// with the target cost model. Two modes:
///
///  * virtual  — registers are the vreg table itself (pre-allocation
///    golden runs);
///  * allocated — every register operand is mapped through an
///    AllocationResult onto the target's finite register files, and
///    spill slots become real memory.
///
/// Running the same program in both modes and comparing the two runs
/// with compareRuns validates an allocation end-to-end; comparing cycle
/// counts between two allocators yields the paper's dynamic columns.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SIM_SIMULATOR_H
#define RA_SIM_SIMULATOR_H

#include "ir/Module.h"
#include "regalloc/Allocator.h"
#include "target/CostModel.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace ra {

/// Typed storage for every array in a module.
class MemoryImage {
public:
  /// The most elements, summed over a module's arrays, an image holds:
  /// 2^24, 128 MiB of 8-byte elements. The parser accepts arrays of up to
  /// 2^32 - 1 elements, so a caller building an image for text from
  /// outside checks elementCount first.
  static constexpr uint64_t MaxElements = uint64_t(1) << 24;

  /// The elements of \p M's arrays, summed.
  static uint64_t elementCount(const Module &M);

  /// Allocates zero-initialized storage shaped like \p M's arrays.
  explicit MemoryImage(const Module &M);

  std::vector<int64_t> &intArray(uint32_t Id);
  std::vector<double> &floatArray(uint32_t Id);
  const std::vector<int64_t> &intArray(uint32_t Id) const;
  const std::vector<double> &floatArray(uint32_t Id) const;

  /// Where two images first differ. An Index past one image's end
  /// means the array's sizes differ.
  struct Difference {
    uint32_t Array;
    size_t Index;
  };

  /// The first differing element in array-id then index order, or
  /// nullopt when all elements agree (floats by doubleSemanticallyEqual).
  /// The one element walk behind operator== and compareRuns.
  std::optional<Difference> firstDifference(const MemoryImage &Other) const;
  bool operator==(const MemoryImage &Other) const {
    return !firstDifference(Other);
  }

  /// Bit-equal, or both NaN (of any payload/sign). Plain == would make
  /// two runs computing the identical NaN diverge (NaN != NaN), while
  /// strict bitwise comparison is too strong the other way: with two
  /// NaN operands, x*y propagates whichever one the compiler's
  /// instruction scheduling happens to read first, so the payload/sign
  /// of a computed NaN is not a property a differential oracle (golden
  /// run vs allocated run) may rely on.
  static bool doubleSemanticallyEqual(double L, double R) {
    if (std::isnan(L) || std::isnan(R))
      return std::isnan(L) && std::isnan(R);
    uint64_t LB, RB;
    std::memcpy(&LB, &L, sizeof(double));
    std::memcpy(&RB, &R, sizeof(double));
    return LB == RB;
  }

private:
  // Indexed by array id; the unused class's vector stays empty.
  std::vector<std::vector<int64_t>> IntData;
  std::vector<std::vector<double>> FloatData;
};

/// Execution limits for one simulated run.
struct SimOptions {
  /// Instruction ceiling before the run traps (the hedge against
  /// allocation bugs that manifest as infinite loops). Exhausting it
  /// produces a structured DeadlineExceeded diagnostic in
  /// ExecutionResult::Diag, so harnesses (ralfuzz --max-instructions)
  /// can tell a hang apart from a wrong-answer trap and shrink hang
  /// reproducers like any other failure.
  uint64_t MaxInstructions = 1ull << 32;
};

/// Outcome of one simulated run.
struct ExecutionResult {
  bool Ok = false;
  std::string Error;             ///< Trap reason when !Ok.
  /// Structured twin of Error: InvalidInput for genuine program traps
  /// (division by zero, out-of-bounds access, ...), DeadlineExceeded
  /// when SimOptions::MaxInstructions ran out. Ok status on success.
  Status Diag;
  uint64_t Cycles = 0;           ///< Total cost-model cycles.
  uint64_t Instructions = 0;     ///< Instructions executed.
  uint64_t SpillCycles = 0;      ///< Cycles spent in spill.ld/spill.st.
  uint64_t SpillOps = 0;         ///< Spill instructions executed.
  /// Inter-piece register moves executed for split live ranges (each
  /// charged one Copy). The allocation's Pieces table implies a move
  /// wherever a value crosses into a piece holding a different
  /// register while live; the simulator performs them between
  /// instructions, as a hardware resolver (or a later rewrite pass)
  /// would.
  uint64_t SplitMoves = 0;
  bool HasIntReturn = false, HasFloatReturn = false;
  int64_t IntReturn = 0;
  double FloatReturn = 0;
};

/// Interprets functions of one module.
class Simulator {
public:
  Simulator(const Module &M, CostModel CM = CostModel::rtpc())
      : M(M), CM(CM) {}

  /// Runs \p F over virtual registers.
  ExecutionResult runVirtual(const Function &F, MemoryImage &Mem,
                             const SimOptions &SO = {}) const;

  /// Runs \p F with registers mapped through \p A onto physical files.
  /// \p A must come from allocating exactly this (rewritten) function.
  ExecutionResult runAllocated(const Function &F, const AllocationResult &A,
                               MemoryImage &Mem,
                               const SimOptions &SO = {}) const;

private:
  ExecutionResult run(const Function &F, MemoryImage &Mem,
                      const AllocationResult *A, const SimOptions &SO) const;

  const Module &M;
  CostModel CM;
};

/// The one run-comparison oracle: checks a run (\p Got, \p GotMem)
/// against a reference run of the same program (\p Ref, \p RefMem).
/// Both images must be shaped by \p M's arrays, which name them.
/// Returns an empty string when the runs agree; otherwise it describes
/// the first difference, checked in this order:
///  1. either run did not finish (a trap and an instruction-budget hang
///     are told apart);
///  2. HasIntReturn, then IntReturn;
///  3. HasFloatReturn, then FloatReturn by doubleSemanticallyEqual
///     (+0.0 and -0.0 differ, any two NaNs agree);
///  4. memory: the first differing element, named by array and index.
std::string compareRuns(const Module &M, const ExecutionResult &Ref,
                        const MemoryImage &RefMem, const ExecutionResult &Got,
                        const MemoryImage &GotMem);

} // namespace ra

#endif // RA_SIM_SIMULATOR_H
