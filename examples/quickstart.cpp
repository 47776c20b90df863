//===- examples/quickstart.cpp - five-minute tour of the library ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Quickstart: write a small function in the textual IR, run it, then
// allocate registers with Chaitin's heuristic and with the paper's
// optimistic heuristic and compare. Shows the three API layers a user
// touches: parse (or IRBuilder), allocateRegisters, Simulator (with
// compareRuns to check an allocated run against the virtual one).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <string>

using namespace ra;

int main() {
  // A dot product with a scaling factor, in the textual IR.
  const char *Source = R"(
    module {
      array @x : flt[64]
      array @y : flt[64]
      func @sdot {
      block entry:
        %i:int = movi 0
        %n:int = movi 64
        %scale:flt = movf 0.5
        %sum:flt = movf 0.0
        jmp head
      block head:
        br lt %i, %n, body, exit
      block body:
        %a:flt = fload @x[%i]
        %b:flt = fload @y[%i]
        %p:flt = fmul %a, %b
        %sum:flt = fadd %sum, %p
        %i:int = addi %i, 1
        jmp head
      block exit:
        %r:flt = fmul %sum, %scale
        ret %r
      }
    }
  )";

  Module M;
  std::string Error;
  if (!parseModule(Source, M, Error)) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }
  Function &F = *M.findFunction("sdot");

  auto Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::fprintf(stderr, "verifier: %s\n", Errors.front().c_str());
    return 1;
  }

  // Golden run over unlimited virtual registers.
  Simulator Sim(M);
  MemoryImage Mem(M);
  for (unsigned I = 0; I < 64; ++I) {
    Mem.floatArray(M.findArray("x"))[I] = 0.25 * I;
    Mem.floatArray(M.findArray("y"))[I] = 2.0;
  }
  ExecutionResult Golden = Sim.runVirtual(F, Mem);
  if (!Golden.Ok) {
    std::fprintf(stderr, "virtual run trapped: %s\n", Golden.Error.c_str());
    return 1;
  }
  std::printf("virtual run: result %.2f in %llu cycles\n",
              Golden.FloatReturn, (unsigned long long)Golden.Cycles);

  // Allocate for a tiny machine with both heuristics.
  for (Heuristic H : {Heuristic::Chaitin, Heuristic::Briggs}) {
    Module M2;
    std::string Err2;
    parseModule(Source, M2, Err2);
    Function &F2 = *M2.findFunction("sdot");

    AllocatorConfig C;
    C.H = H;
    C.Machine = MachineInfo(3, 3); // very constrained, forces spills
    AllocationResult A = allocateRegisters(F2, C);
    if (!A.Success) {
      std::fprintf(stderr, "%s: allocation failed: %s\n", heuristicName(H),
                   A.Diag.toString().c_str());
      return 1;
    }

    MemoryImage Mem2(M2);
    for (unsigned I = 0; I < 64; ++I) {
      Mem2.floatArray(M2.findArray("x"))[I] = 0.25 * I;
      Mem2.floatArray(M2.findArray("y"))[I] = 2.0;
    }
    Simulator Sim2(M2);
    ExecutionResult Run = Sim2.runAllocated(F2, A, Mem2);
    // The allocated code must compute exactly what the virtual run did.
    std::string Diff = compareRuns(M2, Golden, Mem, Run, Mem2);
    if (!Diff.empty()) {
      std::fprintf(stderr, "%s: %s\n", heuristicName(H), Diff.c_str());
      return 1;
    }
    std::printf("%-8s: result %.2f, %u pass(es), %u live ranges "
                "spilled, %llu cycles (%llu spill)\n",
                heuristicName(H), Run.FloatReturn, A.Stats.numPasses(),
                A.Stats.totalSpills(), (unsigned long long)Run.Cycles,
                (unsigned long long)Run.SpillCycles);
  }

  std::printf("\nFinal allocated code (optimistic):\n");
  Module M3;
  std::string Err3;
  parseModule(Source, M3, Err3);
  Function &F3 = *M3.findFunction("sdot");
  AllocatorConfig C;
  C.Machine = MachineInfo(3, 3);
  if (!allocateRegisters(F3, C).Success) {
    std::fprintf(stderr, "allocation failed\n");
    return 1;
  }
  std::printf("%s", printFunction(M3, F3).c_str());
  return 0;
}
