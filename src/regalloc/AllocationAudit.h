//===- regalloc/AllocationAudit.h - Post-allocation verifier ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent verifier for finished allocations. It re-derives
/// liveness from the rewritten function with its own solver and proves,
/// without consulting the allocator's interference graph:
///
///  * every register operand has a physical register, valid for its
///    class and inside the configured file, and the split-range table
///    is sorted, instruction aligned and inside the file;
///  * at every definition point, the defined register's physical
///    register is not held by any other simultaneously-live range of
///    the same class (modulo Chaitin's copy exception: a copy may share
///    its source's register, since both hold the same value there);
///  * a split range is in a piece wherever it is read or written, its
///    moves between pieces land in free registers, and no two live-ins
///    of a block share a register at its entry;
///  * spill loads/stores are well-formed: slot operands are in-range
///    immediates of the matching class, and no path from the entry
///    reaches a spill load before a store to its slot.
///
/// It does so in two backward passes: one liveness solver, run over
/// spill slots and then over registers, and one walk per block that
/// keeps each live value on the holder list of the register it occupies
/// (see AllocationAudit.cpp).
///
/// Because the checks are recomputed from scratch, a bug anywhere in
/// build/coalesce/simplify/select surfaces here instead of being
/// inherited — which is what lets the allocator fall back to
/// spill-everything and report Degraded rather than emit wrong code.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_ALLOCATIONAUDIT_H
#define RA_REGALLOC_ALLOCATIONAUDIT_H

#include "regalloc/Allocator.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace ra {

/// The shape allocation and the audit both rely on: at least one block,
/// no empty block, a terminator exactly at each block's end, register
/// and block operands in range, a register as every definition's first
/// operand, and spill instructions of the form `register, slot`. Ok, or
/// InvalidInput naming the first offending block and instruction, so
/// malformed input is refused before CFG or liveness construction could
/// assert on it.
Status validateForAllocation(const Function &F);

/// Audits \p A as an allocation of the (rewritten) function \p F.
/// Returns every broken invariant as a human-readable message; an empty
/// vector means the allocation is provably consistent.
std::vector<std::string> auditAllocation(const Function &F,
                                         const AllocationResult &A);

/// Convenience wrapper: Ok, or an AuditFailure status carrying the first
/// few audit messages (and the total count when truncated).
Status auditAllocationStatus(const Function &F, const AllocationResult &A);

} // namespace ra

#endif // RA_REGALLOC_ALLOCATIONAUDIT_H
