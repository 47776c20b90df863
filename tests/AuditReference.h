//===- tests/AuditReference.h - The five-pass audit reference ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for the post-allocation audit: the original
/// auditor, which solves register liveness by round-robin iteration,
/// scans the whole live set at every definition and every piece move,
/// checks block entries with a map, and proves store-before-load with a
/// forward dataflow over spill slots. AuditDiffTest holds
/// regalloc/AllocationAudit.cpp to the same verdict on every input:
/// both accept, or both reject.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_AUDITREFERENCE_H
#define RA_TESTS_AUDITREFERENCE_H

#include "regalloc/Allocator.h"

#include <string>
#include <vector>

namespace ra {

/// The reference audit of \p A as an allocation of \p F: every broken
/// invariant as a message, empty when the allocation is consistent.
std::vector<std::string> auditAllocationReference(const Function &F,
                                                  const AllocationResult &A);

} // namespace ra

#endif // RA_TESTS_AUDITREFERENCE_H
