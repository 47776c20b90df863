//===- workloads/MegaKernel.h - Generated giant-function family *- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generated family of "mega-kernels": single functions whose
/// interference graphs reach tens of thousands of live ranges. The
/// paper's Figure 5 routines top out at a few hundred ranges, which is
/// too small to show how each phase scales; these shapes make that
/// measurable while staying verifier-clean, terminating, and
/// executable — every kernel
/// folds its values into a store + return, so the simulator can compare
/// runs before and after allocation exactly.
///
/// Three shapes, each stressing a different Select profile:
///  * pressure ramp — one straight-line block where a ring of Width
///    values is repeatedly combined and replaced: ~Ranges short
///    overlapping ranges of near-uniform degree ~2*Width.
///  * wide unrolled loop — Lanes accumulators live across the back
///    edge, a Body-long unrolled chain of temporaries inside: a few
///    very-high-degree nodes over a sea of small ones, with loop-
///    weighted spill costs.
///  * random stress — RandomProgram scaled up (hundreds of regions,
///    large mutable-variable pools): irregular CSR shapes with
///    function-spanning high-degree pool variables.
///
/// Arithmetic stays bounded by construction (every combine is averaged
/// back into [min, max] of its inputs), so no kernel ever produces
/// inf/NaN and differential simulation stays exact.
///
//===----------------------------------------------------------------------===//

#ifndef RA_WORKLOADS_MEGAKERNEL_H
#define RA_WORKLOADS_MEGAKERNEL_H

#include "ir/Module.h"
#include "regalloc/BuildGraph.h"

#include <functional>
#include <string>
#include <vector>

namespace ra {

/// One generated mega-kernel shape.
struct MegaKernel {
  std::string Name; ///< "mega.ramp.10k" — unique within the family.
  std::string Kind; ///< "ramp", "wide", "random".
  /// Approximate live ranges the kernel produces — the N that sizes the
  /// interference graphs' node arrays.
  uint64_t ApproxRanges = 0;
  /// Builds the kernel (arrays + one function) into a fresh module.
  std::function<Function &(Module &)> Build;
};

/// Bench-scale family: ≥10k live ranges per member (the largest ~50k).
const std::vector<MegaKernel> &megaKernelFamily();

/// Fast variants of the same three shapes (a few thousand ranges) for
/// unit/determinism tests that run in milliseconds.
const std::vector<MegaKernel> &megaKernelTestFamily();

/// Straight-line register-pressure ramp: ~\p Ranges float live ranges
/// in one block, each live for ~\p Width defs (degree ~2*Width).
Function &buildPressureRamp(Module &M, unsigned Ranges, unsigned Width,
                            const std::string &Name);

/// Wide unrolled loop: \p Lanes accumulators live across the back edge
/// and ~2*\p Body chained temporaries per iteration body.
Function &buildWideUnrolledLoop(Module &M, unsigned Lanes, unsigned Body,
                                const std::string &Name);

/// RandomProgram scaled to \p Regions sequential regions with large
/// variable pools — irregular high-degree CSR stress.
Function &buildRandomStress(Module &M, uint64_t Seed, unsigned Regions,
                            const std::string &Name);

/// Build-phase replica for standalone coloring experiments: renumbers
/// live ranges, computes liveness, builds both class graphs, fills
/// loop-weighted spill costs, and finalizes the CSR layout. No
/// coalescing — callers get exactly the graphs Simplify/Select would
/// see on the first uncoalesced pass.
std::array<ClassGraph, NumRegClasses> buildColoringGraphs(Function &F);

} // namespace ra

#endif // RA_WORKLOADS_MEGAKERNEL_H
