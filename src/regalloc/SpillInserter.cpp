//===- regalloc/SpillInserter.cpp - Spill code insertion ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillInserter.h"

#include "support/Trace.h"

#include <cassert>
#include <cstring>
#include <map>
#include <optional>

using namespace ra;

namespace {

/// If every definition of \p R in \p F is a mov of one identical
/// constant, returns that defining instruction (to replicate at uses).
std::optional<Instruction> rematerializableConstant(const Function &F,
                                                    VRegId R) {
  std::optional<Instruction> Def;
  for (const BasicBlock &B : F.blocks()) {
    for (const Instruction &I : B.Insts) {
      if (!I.hasDef() || I.defReg() != R)
        continue;
      if (I.Op != Opcode::MovI && I.Op != Opcode::MovF)
        return std::nullopt;
      if (Def) {
        // All defs must produce bit-identical constants.
        if (Def->Op != I.Op)
          return std::nullopt;
        if (I.Op == Opcode::MovI && Def->Ops[1].Imm != I.Ops[1].Imm)
          return std::nullopt;
        if (I.Op == Opcode::MovF &&
            std::memcmp(&Def->Ops[1].FImm, &I.Ops[1].FImm,
                        sizeof(double)) != 0)
          return std::nullopt;
      } else {
        Def = I;
      }
    }
  }
  return Def;
}

} // namespace

SpillCodeStats ra::insertSpillCode(Function &F,
                                   const std::vector<VRegId> &ToSpill,
                                   bool Rematerialize) {
  std::vector<SpillRequest> Requests;
  Requests.reserve(ToSpill.size());
  for (VRegId R : ToSpill)
    Requests.push_back({R, /*FromSlot=*/0});
  return insertSpillCode(F, Requests, Rematerialize);
}

SpillCodeStats ra::insertSpillCode(Function &F,
                                   const std::vector<SpillRequest> &ToSpill,
                                   bool Rematerialize) {
  SpillCodeStats Stats;
  if (ToSpill.empty())
    return Stats;
  constexpr uint32_t NotSpilled = ~uint32_t(0);

  // Demote suffix requests whose region holds no *real* uses to
  // whole-lifetime spills. A region can be live yet use-free when the
  // lifetime is held open by a loop back edge to a lower-numbered slot;
  // and spill.st operands don't count, because a store inserted by an
  // earlier pass's suffix spill of the same range only copies the value
  // back to memory — reloading for it is memory-to-memory churn that
  // shrinks nothing. Either way a store-only rewrite leaves the range —
  // and therefore the next pass's decision — unchanged, so spilling the
  // suffix would never converge; demotion retires the vreg instead.
  std::vector<SpillRequest> Reqs(ToSpill);
  bool AnySuffix = false;
  for (const SpillRequest &S : Reqs)
    AnySuffix |= S.FromSlot != 0;
  if (AnySuffix) {
    std::vector<uint32_t> LastUse(F.numVRegs(), NotSpilled);
    uint32_t Idx = 0;
    for (BasicBlock &B : F.blocks())
      for (Instruction &I : B.Insts) {
        const uint32_t ReadSlot = Idx++ * 2;
        if (I.Op == Opcode::SpillSt)
          continue;
        I.forEachUseOperand(
            [&](Operand &O) { LastUse[O.Reg] = ReadSlot; });
      }
    for (SpillRequest &S : Reqs)
      if (S.FromSlot != 0 &&
          (LastUse[S.Reg] == NotSpilled || LastUse[S.Reg] < S.FromSlot)) {
        S.FromSlot = 0;
        ++Stats.Demoted;
      }
  }

  // Constant ranges that can be recomputed instead of stored.
  std::map<VRegId, Instruction> Remat;
  if (Rematerialize)
    for (const SpillRequest &S : Reqs)
      if (auto Def = rematerializableConstant(F, S.Reg)) {
        Remat.emplace(S.Reg, *Def);
        ++Stats.Remats;
      }

  // Assign one stack slot per genuinely spilled live range, and record
  // where each range's spilled region begins (0 = whole lifetime).
  std::vector<uint32_t> FromOf(F.numVRegs(), NotSpilled);
  std::vector<int32_t> SlotOf(F.numVRegs(), -1);
  for (const SpillRequest &S : Reqs) {
    assert(FromOf[S.Reg] == NotSpilled &&
           "live range spilled twice in one pass");
    FromOf[S.Reg] = S.FromSlot;
    if (Remat.count(S.Reg))
      continue;
    SlotOf[S.Reg] = int32_t(F.newSpillSlot(F.regClass(S.Reg)));
  }

  // Walk in block layout order, tracking the pre-rewrite instruction
  // index — read slot = index * 2, matching InstrNumbering — so suffix
  // requests can tell head uses (kept in the original vreg) from
  // region uses (reloaded).
  uint32_t GlobalIdx = 0;
  for (BasicBlock &B : F.blocks()) {
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(B.Insts.size());
    for (Instruction &I : B.Insts) {
      const uint32_t ReadSlot = GlobalIdx * 2;
      ++GlobalIdx;

      // Definitions of whole-range rematerialized constants simply
      // disappear: every use recomputes the value. Suffix-spilled
      // definitions always survive — head uses still read the vreg.
      if (I.hasDef() && FromOf[I.defReg()] == 0 && Remat.count(I.defReg()))
        continue;

      // Restore spilled operands into fresh temporaries before the use.
      // Several uses of the same spilled range in one instruction share
      // one restore (or one recompute). For a suffix request only uses
      // at or past the region start reload; head uses keep the vreg.
      std::vector<std::pair<VRegId, VRegId>> Restored; // (old, temp)
      I.forEachUseOperand([&](Operand &O) {
        VRegId R = O.Reg;
        if (FromOf[R] == NotSpilled || ReadSlot < FromOf[R])
          return;
        auto RematIt = Remat.find(R);
        if (SlotOf[R] < 0 && RematIt == Remat.end())
          return;
        VRegId Temp = InvalidVReg;
        for (const auto &[Old, T] : Restored)
          if (Old == R)
            Temp = T;
        if (Temp == InvalidVReg) {
          Temp = F.newVReg(F.regClass(R), F.vreg(R).Name + ".r",
                           /*IsSpillTemp=*/true);
          if (RematIt != Remat.end()) {
            Instruction Recompute = RematIt->second;
            Recompute.setDefReg(Temp);
            NewInsts.push_back(std::move(Recompute));
          } else {
            NewInsts.push_back({Opcode::SpillLd,
                                {Operand::reg(Temp),
                                 Operand::intImm(SlotOf[R])}});
            ++Stats.Loads;
          }
          Restored.push_back({R, Temp});
        }
        O = Operand::reg(Temp);
      });

      // Whole-range spill: redirect the definition into a temporary and
      // store it to the slot right after. Suffix spill: the definition
      // keeps writing the vreg (head uses — possibly reached over a
      // back edge from inside the region — still read it) and the
      // store copies the vreg itself, keeping the slot current on
      // every path into the region.
      bool StoreAfter = false;
      int64_t StoreSlot = 0;
      VRegId StoreReg = InvalidVReg;
      if (I.hasDef() && SlotOf[I.defReg()] >= 0) {
        VRegId R = I.defReg();
        StoreSlot = SlotOf[R];
        if (FromOf[R] == 0) {
          StoreReg = F.newVReg(F.regClass(R), F.vreg(R).Name + ".s",
                               /*IsSpillTemp=*/true);
          I.setDefReg(StoreReg);
        } else {
          StoreReg = R;
        }
        StoreAfter = true;
      }

      NewInsts.push_back(std::move(I));
      if (StoreAfter) {
        NewInsts.push_back({Opcode::SpillSt,
                            {Operand::reg(StoreReg),
                             Operand::intImm(StoreSlot)}});
        ++Stats.Stores;
      }
    }
    B.Insts = std::move(NewInsts);
  }
  RA_TRACE_COUNTER("spill.loads", Stats.Loads);
  RA_TRACE_COUNTER("spill.stores", Stats.Stores);
  RA_TRACE_COUNTER("spill.remats", Stats.Remats);
  return Stats;
}
