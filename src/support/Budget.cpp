//===- support/Budget.cpp - Cooperative deadline + memory budget ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <cstdio>

using namespace ra;

const char *const Budget::DeadlineExhaustedTag = "deadline";
const char *const Budget::MemoryExhaustedTag = "memory";

Status Budget::status() const {
  if (!Exhausted)
    return Status();
  char Buf[192];
  if (Exhausted == DeadlineExhaustedTag) {
    std::snprintf(Buf, sizeof(Buf),
                  "deadline of %.6gs exceeded after %.6gs", DeadlineLimit,
                  TrippedAfter);
    return Status::error(StatusCode::DeadlineExceeded, Buf);
  }
  std::snprintf(Buf, sizeof(Buf),
                "memory budget of %llu bytes refused a %llu-byte charge "
                "(%llu bytes held)",
                (unsigned long long)ByteLimit,
                (unsigned long long)RefusedBytes,
                (unsigned long long)Current);
  return Status::error(StatusCode::MemoryBudgetExceeded, Buf);
}
