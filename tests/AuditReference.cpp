//===- tests/AuditReference.cpp - The five-pass audit reference -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The post-allocation audit as it stood before the two-pass rewrite,
// kept verbatim: a round-robin liveness fixpoint, a def-point scan of
// the whole live set, a live x live piece-move scan, a std::map
// block-entry check, a separate piece-coverage pass and a forward
// must-be-stored dataflow over spill slots.
//
//===----------------------------------------------------------------------===//

#include "AuditReference.h"

#include "support/BitVector.h"

#include <deque>
#include <map>

using namespace ra;

namespace {

/// Formats an operand without needing the enclosing Module (the audit
/// runs inside allocateRegisters, which only sees the Function).
std::string operandText(const Function &F, const Operand &O) {
  switch (O.K) {
  case Operand::Kind::Reg:
    return O.Reg < F.numVRegs() ? "%" + F.vreg(O.Reg).Name
                                : "%<out-of-range:" + std::to_string(O.Reg) +
                                      ">";
  case Operand::Kind::IntImm:
    return std::to_string(O.Imm);
  case Operand::Kind::FloatImm:
    return std::to_string(O.FImm);
  case Operand::Kind::Array:
    return "@array." + std::to_string(O.Array);
  case Operand::Kind::Block:
    return O.Block < F.numBlocks() ? F.block(O.Block).Name
                                   : "<bad-block:" + std::to_string(O.Block) +
                                         ">";
  case Operand::Kind::None:
    break;
  }
  return "<none>";
}

std::string instructionText(const Function &F, const Instruction &I) {
  std::string Out = opcodeName(I.Op);
  for (unsigned Idx = 0; Idx < I.Ops.size(); ++Idx)
    Out += (Idx ? ", " : " ") + operandText(F, I.Ops[Idx]);
  return Out;
}

class Auditor {
public:
  Auditor(const Function &F, const AllocationResult &A) : F(F), A(A) {}

  std::vector<std::string> run() {
    if (!checkStructure())
      return Errors; // dataflow below needs well-shaped blocks
    checkAssignments();
    checkPieces();
    if (Errors.empty()) {
      numberBlocks();
      computeLiveness();
      if (!A.Pieces.empty()) {
        checkPieceCoverage();
        checkBlockEntryDistinct();
      }
      checkRegisterConflicts();
      checkSpillSlots();
    }
    return Errors;
  }

private:
  void error(const BasicBlock &B, const Instruction &I,
             const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": in " + B.Name + ": '" +
                     instructionText(F, I) + "': " + Msg);
  }

  void error(const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": " + Msg);
  }

  /// Shape checks the later dataflow depends on: non-empty terminated
  /// blocks, in-range branch targets and register ids.
  bool checkStructure() {
    if (F.numBlocks() == 0) {
      error("function has no blocks");
      return false;
    }
    for (const BasicBlock &B : F.blocks()) {
      if (B.Insts.empty()) {
        error("block " + B.Name + " is empty");
        return false;
      }
      for (unsigned Idx = 0, E = B.Insts.size(); Idx != E; ++Idx) {
        const Instruction &I = B.Insts[Idx];
        if (I.isTerminator() != (Idx + 1 == E)) {
          error(B, I, Idx + 1 == E ? "block does not end in a terminator"
                                   : "terminator in the middle of a block");
          return false;
        }
        for (const Operand &O : I.Ops) {
          if (O.isReg() && O.Reg >= F.numVRegs()) {
            error(B, I, "register id out of range");
            return false;
          }
          if (O.isBlock() && O.Block >= F.numBlocks()) {
            error(B, I, "branch to out-of-range block");
            return false;
          }
        }
        if ((I.Op == Opcode::SpillLd || I.Op == Opcode::SpillSt) &&
            (I.Ops.size() != 2 || !I.Ops[0].isReg() ||
             I.Ops[1].K != Operand::Kind::IntImm)) {
          error(B, I, "malformed spill instruction");
          return false;
        }
      }
    }
    return true;
  }

  /// Every register operand must map to a physical register inside its
  /// class's file.
  void checkAssignments() {
    if (A.ColorOf.size() != F.numVRegs()) {
      error("allocation covers " + std::to_string(A.ColorOf.size()) +
            " registers but the function has " +
            std::to_string(F.numVRegs()));
      return;
    }
    BitVector Reported(F.numVRegs());
    for (const BasicBlock &B : F.blocks()) {
      for (const Instruction &I : B.Insts) {
        for (const Operand &O : I.Ops) {
          if (!O.isReg() || !Reported.testAndSet(O.Reg))
            continue;
          int32_t Phys = A.ColorOf[O.Reg];
          unsigned FileSize = A.Machine.numRegs(F.regClass(O.Reg));
          if (Phys < 0)
            error(B, I, "%" + F.vreg(O.Reg).Name +
                            " has no physical register");
          else if (unsigned(Phys) >= FileSize)
            error(B, I, "%" + F.vreg(O.Reg).Name + " assigned " +
                            regClassName(F.regClass(O.Reg)) + " r" +
                            std::to_string(Phys) + " outside the " +
                            std::to_string(FileSize) + "-register file");
        }
      }
    }
  }

  /// Validates the split-range table: sorted by (register, slot),
  /// well-formed instruction-aligned ranges, physical registers inside
  /// the file, no overlap between pieces of one range, and a color
  /// table that agrees with each range's first piece. Also builds the
  /// per-vreg span index the slot-aware checks below resolve against.
  void checkPieces() {
    if (A.Pieces.empty() || A.ColorOf.size() != F.numVRegs())
      return; // nothing to index, or checkAssignments already reported
    SpansOf.assign(F.numVRegs(), {});
    const PieceAssignment *Prev = nullptr;
    for (const PieceAssignment &P : A.Pieces) {
      if (P.Reg >= F.numVRegs()) {
        error("piece assignment for out-of-range register " +
              std::to_string(P.Reg));
        continue;
      }
      std::string Name = "%" + F.vreg(P.Reg).Name;
      if (P.From >= P.To || (P.From & 1) || (P.To & 1))
        error("piece of " + Name + " has malformed slot range [" +
              std::to_string(P.From) + ", " + std::to_string(P.To) + ")");
      unsigned FileSize = A.Machine.numRegs(F.regClass(P.Reg));
      if (P.PhysReg >= FileSize)
        error("piece of " + Name + " assigned " +
              std::string(regClassName(F.regClass(P.Reg))) + " r" +
              std::to_string(P.PhysReg) + " outside the " +
              std::to_string(FileSize) + "-register file");
      if (Prev && (Prev->Reg > P.Reg ||
                   (Prev->Reg == P.Reg && Prev->From > P.From)))
        error("piece table is not sorted by (register, slot)");
      if (Prev && Prev->Reg == P.Reg && Prev->To > P.From)
        error("pieces of " + Name + " overlap");
      SpansOf[P.Reg].push_back({P.From, P.To, P.PhysReg});
      Prev = &P;
    }
    for (VRegId R = 0; R < F.numVRegs(); ++R)
      if (!SpansOf[R].empty() &&
          A.ColorOf[R] != int32_t(SpansOf[R].front().Phys))
        error("%" + F.vreg(R).Name +
              " color table disagrees with its first piece");
  }

  /// Local copy of the InstrNumbering convention: instructions are
  /// numbered in block layout order, read slot = index * 2, write slot
  /// = index * 2 + 1. Recomputed here so the audit does not inherit the
  /// analysis it is checking.
  void numberBlocks() {
    FirstInst.assign(F.numBlocks(), 0);
    uint32_t Idx = 0;
    for (const BasicBlock &B : F.blocks()) {
      FirstInst[B.Id] = Idx;
      Idx += uint32_t(B.Insts.size());
    }
  }

  /// Where value \p V lives at slot \p S: its piece's register, its
  /// single color when unsplit, or -1 when no piece covers the slot.
  int32_t physAt(VRegId V, uint32_t S) const {
    if (SpansOf.empty() || SpansOf[V].empty())
      return A.ColorOf[V];
    for (const Span &P : SpansOf[V])
      if (P.From <= S && S < P.To)
        return int32_t(P.Phys);
    return -1;
  }

  /// Every access of a split range must land inside one of its pieces:
  /// reads at the instruction's read slot, definitions at its write
  /// slot. A gap at an access point means the value has no register
  /// exactly when the instruction needs one.
  void checkPieceCoverage() {
    for (const BasicBlock &B : F.blocks()) {
      uint32_t Idx = 0;
      for (const Instruction &I : B.Insts) {
        const uint32_t ReadSlot = (FirstInst[B.Id] + Idx) * 2;
        ++Idx;
        I.forEachUse([&](VRegId R) {
          if (!SpansOf[R].empty() && physAt(R, ReadSlot) < 0)
            error(B, I, "%" + F.vreg(R).Name + " is read at slot " +
                            std::to_string(ReadSlot) +
                            " where no piece assigns it a register");
        });
        if (I.hasDef() && !SpansOf[I.defReg()].empty() &&
            physAt(I.defReg(), ReadSlot + 1) < 0)
          error(B, I, "%" + F.vreg(I.defReg()).Name +
                          " is defined at slot " +
                          std::to_string(ReadSlot + 1) +
                          " where no piece assigns it a register");
      }
    }
  }

  /// On entry to each block every live-in value must occupy a distinct
  /// register within its class. Cross-edge piece moves are resolved on
  /// the edge, so a collision at the entry slot means two values target
  /// one register — the conflict shape def-point checking cannot see,
  /// because a piece may change register across an edge with no def in
  /// sight.
  void checkBlockEntryDistinct() {
    std::map<std::pair<RegClass, int32_t>, unsigned> Holder;
    for (const BasicBlock &B : F.blocks()) {
      const uint32_t S = FirstInst[B.Id] * 2;
      Holder.clear();
      LiveIn[B.Id].forEachSetBit([&](unsigned V) {
        int32_t P = physAt(V, S);
        if (P < 0)
          return;
        auto Key = std::make_pair(F.regClass(V), P);
        auto It = Holder.find(Key);
        if (It != Holder.end())
          error(B, B.Insts.front(),
                "at block entry %" + F.vreg(V).Name + " and %" +
                    F.vreg(It->second).Name + " both occupy " +
                    std::string(regClassName(F.regClass(V))) + " r" +
                    std::to_string(P));
        else
          Holder.emplace(Key, V);
      });
    }
  }

  /// Backward live-variable fixpoint, written out longhand so the audit
  /// shares no code with analysis/Liveness.
  void computeLiveness() {
    unsigned NB = F.numBlocks(), NR = F.numVRegs();
    std::vector<BitVector> Use(NB, BitVector(NR)), Def(NB, BitVector(NR));
    LiveOut.assign(NB, BitVector(NR));
    LiveIn.assign(NB, BitVector(NR));
    std::vector<std::vector<uint32_t>> Preds(NB);

    for (const BasicBlock &B : F.blocks()) {
      B.terminator().forEachBlockTarget(
          [&](uint32_t S) { Preds[S].push_back(B.Id); });
      for (const Instruction &I : B.Insts) {
        I.forEachUse([&](VRegId R) {
          if (!Def[B.Id].test(R))
            Use[B.Id].set(R);
        });
        if (I.hasDef())
          Def[B.Id].set(I.defReg());
      }
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned BId = NB; BId-- > 0;) {
        BitVector Out(NR);
        F.block(BId).terminator().forEachBlockTarget(
            [&](uint32_t S) { Out.unionWith(LiveIn[S]); });
        BitVector In = Out;
        In.subtract(Def[BId]);
        In.unionWith(Use[BId]);
        if (!(Out == LiveOut[BId]) || !(In == LiveIn[BId])) {
          LiveOut[BId] = std::move(Out);
          LiveIn[BId] = std::move(In);
          Changed = true;
        }
      }
    }
  }

  /// At every definition point, the defined register must not share its
  /// physical register with any other live range live just after the
  /// instruction (same class). Exception: a Copy's target may share with
  /// its source — both hold the same value at that point, so later reads
  /// of either are still correct. All comparisons resolve through
  /// physAt, so a split range is checked against the register it holds
  /// *at that slot*; and wherever a piece boundary falls inside the
  /// block, the implicit move is checked against every other live
  /// value's location at the same slot.
  void checkRegisterConflicts() {
    const bool Pieced = !A.Pieces.empty();
    for (const BasicBlock &B : F.blocks()) {
      BitVector Live = LiveOut[B.Id];
      for (unsigned Idx = B.Insts.size(); Idx-- > 0;) {
        const Instruction &I = B.Insts[Idx];
        const uint32_t ReadSlot = (FirstInst[B.Id] + Idx) * 2;
        // Live currently holds the set live immediately after I.
        if (I.hasDef()) {
          VRegId D = I.defReg();
          RegClass DC = F.regClass(D);
          int32_t DPhys = physAt(D, ReadSlot + 1);
          VRegId CopySrc =
              I.isCopy() && I.Ops[1].isReg() ? I.Ops[1].Reg : InvalidVReg;
          Live.forEachSetBit([&](unsigned V) {
            if (V == D || V == CopySrc)
              return;
            if (F.regClass(V) == DC && DPhys >= 0 &&
                physAt(V, ReadSlot + 1) == DPhys)
              error(B, I,
                    std::string(regClassName(DC)) + " r" +
                        std::to_string(DPhys) + " is clobbered: %" +
                        F.vreg(D).Name + " is defined while %" +
                        F.vreg(V).Name + " is live in the same register");
          });
          Live.reset(D);
        }
        I.forEachUse([&](VRegId R) { Live.set(R); });
        // Live now holds the set live immediately before I. A split
        // value changing register right here (between the previous
        // instruction and this one) implies a move; its target must not
        // be occupied by any other value live across the move.
        if (Pieced && ReadSlot >= FirstInst[B.Id] * 2 + 2) {
          Live.forEachSetBit([&](unsigned V) {
            if (SpansOf[V].empty())
              return;
            int32_t POld = physAt(V, ReadSlot - 2);
            int32_t PNew = physAt(V, ReadSlot);
            if (POld < 0 || PNew < 0 || POld == PNew)
              return;
            RegClass C = F.regClass(V);
            Live.forEachSetBit([&](unsigned W) {
              if (W == V || F.regClass(W) != C)
                return;
              if (physAt(W, ReadSlot) == PNew)
                error(B, I,
                      "piece move puts %" + F.vreg(V).Name + " into " +
                          std::string(regClassName(C)) + " r" +
                          std::to_string(PNew) + " while %" +
                          F.vreg(W).Name + " occupies it");
            });
          });
        }
      }
    }
  }

  /// Spill traffic: slot operands in range and of the right class, and a
  /// forward definite-assignment dataflow proving every spill load is
  /// reached by a store to its slot on all paths ("never reload garbage").
  void checkSpillSlots() {
    unsigned NB = F.numBlocks(), NS = F.numSpillSlots();

    for (const BasicBlock &B : F.blocks()) {
      for (const Instruction &I : B.Insts) {
        if (I.Op != Opcode::SpillLd && I.Op != Opcode::SpillSt)
          continue;
        int64_t Slot = I.Ops[1].Imm;
        if (Slot < 0 || uint64_t(Slot) >= NS) {
          error(B, I, "spill slot out of range");
          return; // slot dataflow below would index out of range
        }
        if (F.spillSlotClass(unsigned(Slot)) != F.regClass(I.Ops[0].Reg))
          error(B, I, "spill slot class mismatch");
      }
    }
    if (NS == 0)
      return;

    // StoredOut[b]: slots stored on every path from entry through b.
    std::vector<BitVector> StoredOut(NB, BitVector(NS));
    std::vector<bool> Reached(NB, false);
    std::vector<std::vector<uint32_t>> Preds(NB);
    for (const BasicBlock &B : F.blocks())
      B.terminator().forEachBlockTarget(
          [&](uint32_t S) { Preds[S].push_back(B.Id); });
    for (BitVector &BV : StoredOut)
      BV.setAll(); // top element for the intersection

    std::deque<uint32_t> Work{F.entry()};
    std::vector<bool> InWork(NB, false);
    InWork[F.entry()] = true;
    while (!Work.empty()) {
      uint32_t BId = Work.front();
      Work.pop_front();
      InWork[BId] = false;
      bool FirstVisit = !Reached[BId];
      Reached[BId] = true;

      BitVector In = blockInSet(BId, Preds, StoredOut, Reached, NS);
      for (const Instruction &I : F.block(BId).Insts)
        if (I.Op == Opcode::SpillSt)
          In.set(unsigned(I.Ops[1].Imm));
      if (FirstVisit || !(In == StoredOut[BId])) {
        StoredOut[BId] = std::move(In);
        F.block(BId).terminator().forEachBlockTarget([&](uint32_t S) {
          if (!InWork[S]) {
            InWork[S] = true;
            Work.push_back(S);
          }
        });
      }
    }

    for (const BasicBlock &B : F.blocks()) {
      if (!Reached[B.Id])
        continue;
      BitVector Stored = blockInSet(B.Id, Preds, StoredOut, Reached, NS);
      for (const Instruction &I : B.Insts) {
        if (I.Op == Opcode::SpillLd &&
            !Stored.test(unsigned(I.Ops[1].Imm)))
          error(B, I, "spill load from slot " +
                          std::to_string(I.Ops[1].Imm) +
                          " that is not stored on every path");
        else if (I.Op == Opcode::SpillSt)
          Stored.set(unsigned(I.Ops[1].Imm));
      }
    }
  }

  /// Intersection of StoredOut over reached predecessors (empty set for
  /// the entry block).
  BitVector blockInSet(uint32_t BId,
                       const std::vector<std::vector<uint32_t>> &Preds,
                       const std::vector<BitVector> &StoredOut,
                       const std::vector<bool> &Reached, unsigned NS) {
    BitVector In(NS);
    if (BId == F.entry())
      return In;
    bool First = true;
    for (uint32_t P : Preds[BId]) {
      if (!Reached[P])
        continue;
      if (First) {
        In = StoredOut[P];
        First = false;
      } else {
        In.intersectWith(StoredOut[P]);
      }
    }
    return In;
  }

  /// One piece of a split range, indexed per vreg by checkPieces.
  struct Span {
    uint32_t From;
    uint32_t To;
    uint32_t Phys;
  };

  const Function &F;
  const AllocationResult &A;
  std::vector<BitVector> LiveOut;
  std::vector<BitVector> LiveIn;
  std::vector<std::vector<Span>> SpansOf; ///< Empty vector = unsplit.
  std::vector<uint32_t> FirstInst;        ///< Block -> first instr index.
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string>
ra::auditAllocationReference(const Function &F, const AllocationResult &A) {
  return Auditor(F, A).run();
}
