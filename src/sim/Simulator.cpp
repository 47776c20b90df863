//===- sim/Simulator.cpp - Cycle-counting IR interpreter ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "analysis/CFG.h"
#include "analysis/InstrNumbering.h"
#include "analysis/Liveness.h"
#include "linearscan/LiveInterval.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>

using namespace ra;

uint64_t MemoryImage::elementCount(const Module &M) {
  uint64_t N = 0;
  for (uint32_t A = 0; A < M.numArrays(); ++A)
    N += M.array(A).Size;
  return N;
}

MemoryImage::MemoryImage(const Module &M) {
  IntData.resize(M.numArrays());
  FloatData.resize(M.numArrays());
  for (uint32_t A = 0; A < M.numArrays(); ++A) {
    const ArrayInfo &AI = M.array(A);
    if (AI.Elem == RegClass::Int)
      IntData[A].assign(AI.Size, 0);
    else
      FloatData[A].assign(AI.Size, 0.0);
  }
}

std::vector<int64_t> &MemoryImage::intArray(uint32_t Id) {
  assert(Id < IntData.size() && "array id out of range");
  return IntData[Id];
}
std::vector<double> &MemoryImage::floatArray(uint32_t Id) {
  assert(Id < FloatData.size() && "array id out of range");
  return FloatData[Id];
}
const std::vector<int64_t> &MemoryImage::intArray(uint32_t Id) const {
  assert(Id < IntData.size() && "array id out of range");
  return IntData[Id];
}
const std::vector<double> &MemoryImage::floatArray(uint32_t Id) const {
  assert(Id < FloatData.size() && "array id out of range");
  return FloatData[Id];
}

std::optional<MemoryImage::Difference>
MemoryImage::firstDifference(const MemoryImage &Other) const {
  auto Mismatch = [](const auto &L, const auto &R,
                     auto Same) -> std::optional<size_t> {
    auto [I, J] = std::mismatch(L.begin(), L.end(), R.begin(), R.end(), Same);
    if (I == L.end() && J == R.end())
      return std::nullopt;
    return size_t(I - L.begin());
  };
  uint32_t Arrays = std::min(IntData.size(), Other.IntData.size());
  for (uint32_t A = 0; A < Arrays; ++A) {
    auto I = Mismatch(IntData[A], Other.IntData[A], std::equal_to<>());
    if (!I)
      I = Mismatch(FloatData[A], Other.FloatData[A], doubleSemanticallyEqual);
    if (I)
      return Difference{A, *I};
  }
  if (IntData.size() != Other.IntData.size())
    return Difference{Arrays, 0};
  return std::nullopt;
}

std::string ra::compareRuns(const Module &M, const ExecutionResult &Ref,
                            const MemoryImage &RefMem,
                            const ExecutionResult &Got,
                            const MemoryImage &GotMem) {
  for (auto [R, Who] : {std::pair{&Ref, "reference"}, {&Got, "checked"}})
    if (!R->Ok)
      return std::string(Who) +
             (R->Diag.code() == StatusCode::DeadlineExceeded
                  ? " run hung: "
                  : " run trapped: ") +
             R->Error;

  // Round-trip precision, so +0.0 and -0.0 (and 1 ulp) print apart.
  auto Text = [](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return std::string(Buf);
  };
  auto Differs = [](const std::string &What, const std::string &L,
                    const std::string &R) {
    return What + " differs: reference " + L + ", checked " + R;
  };
  auto Presence = [](bool B) { return B ? "present" : "absent"; };
  if (Ref.HasIntReturn != Got.HasIntReturn)
    return Differs("int return", Presence(Ref.HasIntReturn),
                   Presence(Got.HasIntReturn));
  if (Ref.IntReturn != Got.IntReturn)
    return Differs("int return", std::to_string(Ref.IntReturn),
                   std::to_string(Got.IntReturn));
  if (Ref.HasFloatReturn != Got.HasFloatReturn)
    return Differs("float return", Presence(Ref.HasFloatReturn),
                   Presence(Got.HasFloatReturn));
  if (!MemoryImage::doubleSemanticallyEqual(Ref.FloatReturn, Got.FloatReturn))
    return Differs("float return", Text(Ref.FloatReturn),
                   Text(Got.FloatReturn));

  std::optional<MemoryImage::Difference> D = RefMem.firstDifference(GotMem);
  if (!D)
    return "";
  assert(D->Array < M.numArrays() && "memory images not shaped by M");
  const ArrayInfo &AI = M.array(D->Array);
  auto Element = [&](const MemoryImage &Mem) -> std::string {
    if (AI.Elem == RegClass::Int) {
      const std::vector<int64_t> &V = Mem.intArray(D->Array);
      return D->Index < V.size() ? std::to_string(V[D->Index]) : "nothing";
    }
    const std::vector<double> &V = Mem.floatArray(D->Array);
    return D->Index < V.size() ? Text(V[D->Index]) : "nothing";
  };
  return Differs(AI.Name + "[" + std::to_string(D->Index) + "]",
                 Element(RefMem), Element(GotMem));
}

ExecutionResult Simulator::runVirtual(const Function &F, MemoryImage &Mem,
                                      const SimOptions &SO) const {
  return run(F, Mem, nullptr, SO);
}

ExecutionResult Simulator::runAllocated(const Function &F,
                                        const AllocationResult &A,
                                        MemoryImage &Mem,
                                        const SimOptions &SO) const {
  assert(A.Success && "cannot execute a failed allocation");
  assert(A.ColorOf.size() == F.numVRegs() &&
         "allocation does not match this function");
  return run(F, Mem, &A, SO);
}

ExecutionResult Simulator::run(const Function &F, MemoryImage &Mem,
                               const AllocationResult *A,
                               const SimOptions &SO) const {
  ExecutionResult R;

  // Register files. Virtual mode sizes them by the vreg count; allocated
  // mode by the machine's files, with operands mapped through ColorOf.
  unsigned IntFile = A ? A->Machine.numRegs(RegClass::Int) : F.numVRegs();
  unsigned FltFile = A ? A->Machine.numRegs(RegClass::Float) : F.numVRegs();
  std::vector<int64_t> IntRegs(IntFile, 0);
  std::vector<double> FltRegs(FltFile, 0.0);
  std::vector<int64_t> IntSlots(F.numSpillSlots(), 0);
  std::vector<double> FltSlots(F.numSpillSlots(), 0.0);

  // Split-range state (empty unless the allocation carries per-slot
  // piece assignments). SpansOf holds each split range's piece table;
  // CurPiece tracks which piece the value last occupied along the
  // executed path; ExactLife holds the range's exact lifetime, so the
  // implicit boundary move fires only where the value is genuinely
  // live — at a post-hole resumption the defining instruction writes
  // the new register itself, and the old piece's register may already
  // belong to another value.
  struct Span {
    uint32_t From, To, Phys;
  };
  std::vector<std::vector<Span>> SpansOf;
  std::vector<int32_t> CurPiece;
  std::vector<VRegId> SplitRegs;
  std::vector<LiveInterval> ExactLife; // parallel to SplitRegs
  std::vector<uint32_t> FirstInst;     // block id -> first instr index
  if (A && !A->Pieces.empty()) {
    SpansOf.assign(F.numVRegs(), {});
    for (const PieceAssignment &P : A->Pieces)
      SpansOf[P.Reg].push_back({P.From, P.To, P.PhysReg});
    CurPiece.assign(F.numVRegs(), -1);
    CFG G = CFG::compute(F);
    Liveness LV = Liveness::compute(F, G);
    InstrNumbering Num = InstrNumbering::compute(F);
    LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
    for (VRegId V = 0; V < F.numVRegs(); ++V)
      if (!SpansOf[V].empty()) {
        SplitRegs.push_back(V);
        ExactLife.push_back(LI.interval(V));
      }
    FirstInst.assign(F.numBlocks(), 0);
    uint32_t N = 0;
    for (const BasicBlock &B : F.blocks()) {
      FirstInst[B.Id] = N;
      N += uint32_t(B.Insts.size());
    }
  }

  auto Loc = [&](VRegId V) -> unsigned {
    if (!A)
      return V;
    if (!SpansOf.empty() && !SpansOf[V].empty()) {
      assert(CurPiece[V] >= 0 && "split register accessed before any piece");
      return SpansOf[V][size_t(CurPiece[V])].Phys;
    }
    assert(A->ColorOf[V] >= 0 && "executing an unallocated register");
    return unsigned(A->ColorOf[V]);
  };

  // Applies the implicit moves at slot \p S: every split value whose
  // piece changes here while live is copied old register -> new, as a
  // parallel copy (sources snapshot first — two values may swap).
  std::vector<std::pair<uint32_t, uint32_t>> IntMoves, FltMoves;
  std::vector<int64_t> IntSnap;
  std::vector<double> FltSnap;
  auto PieceTransitions = [&](uint32_t S) {
    IntMoves.clear();
    FltMoves.clear();
    for (size_t K = 0; K < SplitRegs.size(); ++K) {
      VRegId V = SplitRegs[K];
      const std::vector<Span> &Sp = SpansOf[V];
      int32_t J = -1;
      for (size_t P = 0; P < Sp.size(); ++P)
        if (Sp[P].From <= S && S < Sp[P].To) {
          J = int32_t(P);
          break;
        }
      if (J < 0)
        continue;
      int32_t Old = CurPiece[V];
      CurPiece[V] = J;
      if (Old < 0 || Old == J ||
          Sp[size_t(Old)].Phys == Sp[size_t(J)].Phys ||
          !ExactLife[K].covers(S))
        continue;
      auto Mv = std::make_pair(Sp[size_t(Old)].Phys, Sp[size_t(J)].Phys);
      if (F.regClass(V) == RegClass::Int)
        IntMoves.push_back(Mv);
      else
        FltMoves.push_back(Mv);
    }
    if (IntMoves.empty() && FltMoves.empty())
      return;
    IntSnap.clear();
    FltSnap.clear();
    for (const auto &Mv : IntMoves)
      IntSnap.push_back(IntRegs[Mv.first]);
    for (const auto &Mv : FltMoves)
      FltSnap.push_back(FltRegs[Mv.first]);
    for (size_t K = 0; K < IntMoves.size(); ++K)
      IntRegs[IntMoves[K].second] = IntSnap[K];
    for (size_t K = 0; K < FltMoves.size(); ++K)
      FltRegs[FltMoves[K].second] = FltSnap[K];
    uint64_t N = IntMoves.size() + FltMoves.size();
    R.SplitMoves += N;
    R.Cycles += N * CM.cycles(Opcode::Copy);
  };
  auto IReg = [&](const Operand &O) -> int64_t & {
    return IntRegs[Loc(O.Reg)];
  };
  auto FReg = [&](const Operand &O) -> double & {
    return FltRegs[Loc(O.Reg)];
  };

  // Traps carry both the human-readable Error and a structured Diag so
  // harnesses can dispatch on the failure class without string matching.
  auto Trap = [&R](StatusCode C, const std::string &Msg) {
    R.Ok = false;
    R.Error = Msg;
    R.Diag = Status::error(C, Msg);
  };

  uint32_t Block = F.entry();
  size_t Idx = 0;
  while (true) {
    if (R.Instructions >= SO.MaxInstructions) {
      Trap(StatusCode::DeadlineExceeded,
           "instruction budget of " + std::to_string(SO.MaxInstructions) +
               " exhausted (possible infinite loop)");
      return R;
    }
    assert(Idx < F.block(Block).Insts.size() && "fell off a block");
    const Instruction &I = F.block(Block).Insts[Idx];
    if (!SplitRegs.empty())
      PieceTransitions((FirstInst[Block] + uint32_t(Idx)) * 2);
    ++R.Instructions;
    R.Cycles += CM.cycles(I.Op);
    ++Idx;

    switch (I.Op) {
    case Opcode::MovI:
      IReg(I.Ops[0]) = I.Ops[1].Imm;
      break;
    case Opcode::MovF:
      FReg(I.Ops[0]) = I.Ops[1].FImm;
      break;
    case Opcode::Copy:
      if (F.regClass(I.Ops[0].Reg) == RegClass::Int)
        IReg(I.Ops[0]) = IReg(I.Ops[1]);
      else
        FReg(I.Ops[0]) = FReg(I.Ops[1]);
      break;
    case Opcode::Add:
      IReg(I.Ops[0]) = IReg(I.Ops[1]) + IReg(I.Ops[2]);
      break;
    case Opcode::Sub:
      IReg(I.Ops[0]) = IReg(I.Ops[1]) - IReg(I.Ops[2]);
      break;
    case Opcode::Mul:
      IReg(I.Ops[0]) = IReg(I.Ops[1]) * IReg(I.Ops[2]);
      break;
    case Opcode::Div: {
      int64_t D = IReg(I.Ops[2]);
      if (D == 0) {
        Trap(StatusCode::InvalidInput, "integer division by zero");
        return R;
      }
      IReg(I.Ops[0]) = IReg(I.Ops[1]) / D;
      break;
    }
    case Opcode::Rem: {
      int64_t D = IReg(I.Ops[2]);
      if (D == 0) {
        Trap(StatusCode::InvalidInput, "integer remainder by zero");
        return R;
      }
      IReg(I.Ops[0]) = IReg(I.Ops[1]) % D;
      break;
    }
    case Opcode::AddI:
      IReg(I.Ops[0]) = IReg(I.Ops[1]) + I.Ops[2].Imm;
      break;
    case Opcode::MulI:
      IReg(I.Ops[0]) = IReg(I.Ops[1]) * I.Ops[2].Imm;
      break;
    case Opcode::FAdd:
      FReg(I.Ops[0]) = FReg(I.Ops[1]) + FReg(I.Ops[2]);
      break;
    case Opcode::FSub:
      FReg(I.Ops[0]) = FReg(I.Ops[1]) - FReg(I.Ops[2]);
      break;
    case Opcode::FMul:
      FReg(I.Ops[0]) = FReg(I.Ops[1]) * FReg(I.Ops[2]);
      break;
    case Opcode::FDiv:
      FReg(I.Ops[0]) = FReg(I.Ops[1]) / FReg(I.Ops[2]);
      break;
    case Opcode::FNeg:
      FReg(I.Ops[0]) = -FReg(I.Ops[1]);
      break;
    case Opcode::FAbs:
      FReg(I.Ops[0]) = std::fabs(FReg(I.Ops[1]));
      break;
    case Opcode::FSqrt: {
      double V = FReg(I.Ops[1]);
      if (V < 0) {
        Trap(StatusCode::InvalidInput, "square root of a negative value");
        return R;
      }
      FReg(I.Ops[0]) = std::sqrt(V);
      break;
    }
    case Opcode::IToF:
      FReg(I.Ops[0]) = double(IReg(I.Ops[1]));
      break;
    case Opcode::FToI:
      IReg(I.Ops[0]) = int64_t(FReg(I.Ops[1]));
      break;
    case Opcode::Load:
    case Opcode::FLoad: {
      uint32_t Arr = I.Ops[1].Array;
      int64_t Index = IReg(I.Ops[2]);
      if (Index < 0 || uint64_t(Index) >= M.array(Arr).Size) {
        Trap(StatusCode::InvalidInput,
             "load index out of bounds in @" + M.array(Arr).Name);
        return R;
      }
      if (I.Op == Opcode::Load)
        IReg(I.Ops[0]) = Mem.intArray(Arr)[Index];
      else
        FReg(I.Ops[0]) = Mem.floatArray(Arr)[Index];
      break;
    }
    case Opcode::Store:
    case Opcode::FStore: {
      uint32_t Arr = I.Ops[1].Array;
      int64_t Index = IReg(I.Ops[2]);
      if (Index < 0 || uint64_t(Index) >= M.array(Arr).Size) {
        Trap(StatusCode::InvalidInput,
             "store index out of bounds in @" + M.array(Arr).Name);
        return R;
      }
      if (I.Op == Opcode::Store)
        Mem.intArray(Arr)[Index] = IReg(I.Ops[0]);
      else
        Mem.floatArray(Arr)[Index] = FReg(I.Ops[0]);
      break;
    }
    case Opcode::SpillLd: {
      R.SpillCycles += CM.cycles(I.Op);
      ++R.SpillOps;
      unsigned Slot = unsigned(I.Ops[1].Imm);
      if (F.regClass(I.Ops[0].Reg) == RegClass::Int)
        IReg(I.Ops[0]) = IntSlots[Slot];
      else
        FReg(I.Ops[0]) = FltSlots[Slot];
      break;
    }
    case Opcode::SpillSt: {
      R.SpillCycles += CM.cycles(I.Op);
      ++R.SpillOps;
      unsigned Slot = unsigned(I.Ops[1].Imm);
      if (F.regClass(I.Ops[0].Reg) == RegClass::Int)
        IntSlots[Slot] = IReg(I.Ops[0]);
      else
        FltSlots[Slot] = FReg(I.Ops[0]);
      break;
    }
    case Opcode::Br: {
      bool Taken;
      if (F.regClass(I.Ops[0].Reg) == RegClass::Int)
        Taken = evalCmp(I.Cmp, IReg(I.Ops[0]), IReg(I.Ops[1]));
      else
        Taken = evalCmp(I.Cmp, FReg(I.Ops[0]), FReg(I.Ops[1]));
      Block = Taken ? I.Ops[2].Block : I.Ops[3].Block;
      Idx = 0;
      break;
    }
    case Opcode::Jmp:
      Block = I.Ops[0].Block;
      Idx = 0;
      break;
    case Opcode::Ret:
      if (I.Ops.size() == 1) {
        if (F.regClass(I.Ops[0].Reg) == RegClass::Int) {
          R.HasIntReturn = true;
          R.IntReturn = IReg(I.Ops[0]);
        } else {
          R.HasFloatReturn = true;
          R.FloatReturn = FReg(I.Ops[0]);
        }
      }
      R.Ok = true;
      return R;
    }
  }
}
