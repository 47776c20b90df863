//===- regalloc/AllocationAudit.cpp - Post-allocation verifier ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Everything here is recomputed from the function text, in two backward
// passes after the table checks:
//
//  1. One liveness solver, run twice. It keeps no blocks x names array:
//     per name, the blocks that read it first and those that write it;
//     per block, its live-out names. Over spill slots (spill.ld reads
//     its slot, spill.st writes it) a slot live into the entry block is
//     a reload that some path reaches before any store. Over registers
//     it yields each block's live-out list for the walk.
//  2. One occupancy walk per block, from its live-out list back to its
//     top, that keeps every live value on the holder list of the
//     (class, physical register) it occupies at the current slot. A
//     definition conflicts when its register has another holder (bar
//     Chaitin's copy source), a piece move when its target register has
//     a holder, a block entry when a register has two, and an access to
//     a split value when no piece covers it.
//
// None of the allocator's own analyses (Liveness, BuildGraph, the
// interference graph) are reused, so the audit catches their bugs rather
// than inheriting them.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocationAudit.h"

#include "support/BitVector.h"
#include "support/Trace.h"
#include "support/TwoLevelBitSet.h"

#include <algorithm>
#include <array>

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

/// "in BLOCK: 'INSTRUCTION'", the prefix of every per-instruction message.
std::string where(const Function &F, const BasicBlock &B,
                  const Instruction &I) {
  return "in " + B.Name + ": '" + instructionText(F, I) + "'";
}

class Auditor {
public:
  Auditor(const Function &F, const AllocationResult &A) : F(F), A(A) {}

  std::vector<std::string> run() {
    if (Status S = validateForAllocation(F); !S.ok()) {
      error(S.message());
      return Errors; // the passes below need well-shaped blocks
    }
    checkAssignments();
    checkPieces();
    if (!Errors.empty())
      return Errors;
    indexBlocks();
    // Slots first: their sets are freed before the register solve, so
    // the two solves never hold their sets at the same time.
    checkSpillSlots();
    walkBlocks(solveRegisters());
    return Errors;
  }

private:
  void error(const BasicBlock &B, const Instruction &I,
             const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": " + where(F, B, I) + ": " + Msg);
  }

  void error(const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": " + Msg);
  }

  std::string regText(RegClass C, int32_t Phys) const {
    return std::string(regClassName(C)) + " r" + std::to_string(Phys);
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
                            regText(F.regClass(O.Reg), Phys) +
                            " outside the " + std::to_string(FileSize) +
                            "-register file");
        }
      }
    }
  }

  /// Validates the split-range table: sorted by (register, slot),
  /// well-formed instruction-aligned ranges, physical registers inside
  /// the file, no overlap between pieces of one range, and a color
  /// table that agrees with each range's first piece. Also builds the
  /// per-vreg span index physAt resolves against.
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
              regText(F.regClass(P.Reg), int32_t(P.PhysReg)) +
              " outside the " + std::to_string(FileSize) +
              "-register file");
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
  /// = index * 2 + 1. Recomputed here, with the predecessor lists, so
  /// the audit does not inherit the analyses it is checking.
  void indexBlocks() {
    FirstInst.assign(F.numBlocks(), 0);
    Preds.assign(F.numBlocks(), {});
    uint32_t Idx = 0;
    for (const BasicBlock &B : F.blocks()) {
      FirstInst[B.Id] = Idx;
      Idx += uint32_t(B.Insts.size());
      B.terminator().forEachBlockTarget(
          [&](uint32_t S) { Preds[S].push_back(B.Id); });
    }
  }

  /// Lists in one flat array, one list per key (CSR).
  struct Lists {
    std::vector<uint32_t> First; ///< key -> its first item; then the end
    std::vector<uint32_t> Items;

    std::span<const uint32_t> of(uint32_t Key) const {
      return {Items.data() + First[Key], First[Key + 1] - First[Key]};
    }
  };

  /// Groups the (key, item) \p Pairs by key into \p NumKeys lists,
  /// keeping their order within a key.
  static Lists group(unsigned NumKeys,
                     const std::vector<std::pair<uint32_t, uint32_t>> &Pairs) {
    Lists L;
    L.First.assign(NumKeys + 2, 0);
    for (auto [Key, Item] : Pairs)
      ++L.First[Key + 2];
    for (unsigned K = 0; K < NumKeys; ++K)
      L.First[K + 2] += L.First[K + 1];
    L.Items.resize(Pairs.size());
    for (auto [Key, Item] : Pairs) // First[Key + 1] ends at Key's end
      L.Items[L.First[Key + 1]++] = Item;
    L.First.pop_back();
    return L;
  }

  /// The reads and writes of registers or spill slots, block by block:
  /// per name, the blocks that read it before writing it (uses) and the
  /// blocks that write it (defs), each in ascending order. Blocks must
  /// be visited in ascending order.
  class BlockAccesses {
  public:
    explicit BlockAccesses(unsigned NumNames) : Mark(NumNames, 0) {}

    /// Starts block \p B: its marks, 2(B+1) once a name's upward-exposed
    /// read is noted and 2(B+1)+1 once its write is, exceed every mark
    /// an earlier block left.
    void startBlock(uint32_t B) { Read = 2 * (B + 1); }
    void read(uint32_t X) {
      if (Mark[X] < Read) {
        Mark[X] = Read;
        Uses.push_back({X, Read / 2 - 1});
      }
    }
    void write(uint32_t X) {
      if (Mark[X] != Read + 1) {
        Mark[X] = Read + 1;
        Defs.push_back({X, Read / 2 - 1});
      }
    }

    bool anyRead() const { return !Uses.empty(); }
    Lists uses() const { return group(Mark.size(), Uses); }
    Lists defs() const { return group(Mark.size(), Defs); }

  private:
    std::vector<uint32_t> Mark;
    uint32_t Read = 0;
    std::vector<std::pair<uint32_t, uint32_t>> Uses, Defs;
  };

  /// The one liveness solver, over registers or spill slots alike:
  /// LiveOut(b) is the union over successors s of
  /// Use(s) | (LiveOut(s) - Def(s)), where \p Use lists per name the
  /// blocks that read it before writing it and \p Def those that write
  /// it. Each name is pushed back from its upward-exposed reads through
  /// predecessors until a block writes or reads it, so the work follows
  /// the live-out bits set, with no rounds over every block. Returns
  /// each block's live-out names, ascending.
  Lists solveLiveOut(const Lists &Use, const Lists &Def) {
    const unsigned NB = F.numBlocks(), N = Use.First.size() - 1;
    // Per block, the last name that stops there or is live out of it.
    std::vector<uint32_t> Stop(NB, ~0u), Out(NB, ~0u);
    std::vector<std::pair<uint32_t, uint32_t>> Pairs; // (block, name)
    std::vector<uint32_t> Stack;
    for (uint32_t X = 0; X < N; ++X) {
      if (Use.of(X).empty())
        continue; // live out of no block
      for (uint32_t B : Def.of(X))
        Stop[B] = X;
      for (uint32_t B : Use.of(X))
        Stop[B] = X;
      for (uint32_t B : Use.of(X)) {
        Stack.push_back(B);
        while (!Stack.empty()) {
          uint32_t S = Stack.back();
          Stack.pop_back();
          for (uint32_t P : Preds[S]) {
            if (Out[P] == X)
              continue;
            Out[P] = X;
            Pairs.push_back({P, X});
            if (Stop[P] != X)
              Stack.push_back(P);
          }
        }
      }
    }
    return group(NB, Pairs);
  }

  /// Spill traffic: slot operands in range and of their register's
  /// class, and no slot live into the entry block when spill.ld reads
  /// its slot and spill.st writes it — "never reload garbage" on any
  /// path from the entry.
  void checkSpillSlots() {
    const unsigned NS = F.numSpillSlots();
    BlockAccesses Access(NS);
    for (const BasicBlock &B : F.blocks()) {
      Access.startBlock(B.Id);
      for (const Instruction &I : B.Insts) {
        if (I.Op != Opcode::SpillLd && I.Op != Opcode::SpillSt)
          continue;
        int64_t Slot = I.Ops[1].Imm;
        if (Slot < 0 || uint64_t(Slot) >= NS) {
          error(B, I, "spill slot out of range");
          return; // the slot solve below would index out of range
        }
        if (F.spillSlotClass(unsigned(Slot)) != F.regClass(I.Ops[0].Reg))
          error(B, I, "spill slot class mismatch");
        if (I.Op == Opcode::SpillSt)
          Access.write(unsigned(Slot));
        else
          Access.read(unsigned(Slot));
      }
    }
    if (!Access.anyRead())
      return; // no spill.ld: no slot is read before a store
    // LiveIn(entry) = Use(entry) | (LiveOut(entry) - Def(entry)).
    const uint32_t Entry = F.entry();
    const Lists Use = Access.uses(), Def = Access.defs();
    auto Has = [&](const Lists &L, uint32_t X) {
      std::span<const uint32_t> Blocks = L.of(X);
      return std::binary_search(Blocks.begin(), Blocks.end(), Entry);
    };
    const Lists LiveOut = solveLiveOut(Use, Def);
    BitVector LiveIn(NS);
    for (uint32_t X : LiveOut.of(Entry))
      if (!Has(Def, X))
        LiveIn.set(X);
    for (uint32_t X = 0; X < NS; ++X)
      if (Has(Use, X))
        LiveIn.set(X);
    LiveIn.forEachSetBit([&](unsigned Slot) {
      error("spill slot " + std::to_string(Slot) +
            " is loaded on a path from the entry that stores no value "
            "to it");
    });
  }

  /// Register liveness: every block's live-out list, the walk's start.
  Lists solveRegisters() {
    BlockAccesses Access(F.numVRegs());
    for (const BasicBlock &B : F.blocks()) {
      Access.startBlock(B.Id);
      for (const Instruction &I : B.Insts) {
        I.forEachUse([&](VRegId R) { Access.read(R); });
        if (I.hasDef())
          Access.write(I.defReg());
      }
    }
    return solveLiveOut(Access.uses(), Access.defs());
  }

  /// Where value \p V lives at slot \p S: its piece's register, its
  /// single color when unsplit, or -1 when no piece covers the slot.
  int32_t physAt(VRegId V, uint32_t S) const {
    if (SpansOf.empty() || SpansOf[V].empty())
      return A.ColorOf[V];
    const std::vector<Span> &Sp = SpansOf[V];
    auto It = std::upper_bound(
        Sp.begin(), Sp.end(), S,
        [](uint32_t Slot, const Span &P) { return Slot < P.From; });
    if (It == Sp.begin() || S >= std::prev(It)->To)
      return -1;
    return int32_t(std::prev(It)->Phys);
  }

  std::vector<VRegId> &holders(VRegId V, int32_t Phys) {
    return Holders[static_cast<unsigned>(F.regClass(V))][unsigned(Phys)];
  }

  /// Puts live value \p V on the holder list of \p Phys (none when -1).
  void hold(VRegId V, int32_t Phys) {
    if (Phys < 0)
      return;
    std::vector<VRegId> &H = holders(V, Phys);
    HolderPos[V] = uint32_t(H.size());
    H.push_back(V);
  }

  /// Takes \p V off the holder list of \p Phys, where hold put it.
  void release(VRegId V, int32_t Phys) {
    if (Phys < 0)
      return;
    std::vector<VRegId> &H = holders(V, Phys);
    H[HolderPos[V]] = H.back();
    HolderPos[H.back()] = HolderPos[V];
    H.pop_back();
  }

  /// The occupancy walk. Each block is walked backward from its
  /// live-out list. Live holds the values live at the current point, and
  /// each holder list the live values whose register at the current
  /// slot is that list's register. Within a block the slot only falls,
  /// so a split value changes list only at its piece boundaries: the
  /// events, sorted by falling slot and consumed by one cursor, since
  /// the blocks are visited last to first.
  ///
  /// A definition must find no holder of its register but itself and,
  /// for a copy, its source (Chaitin's copy exception: both hold the
  /// same value there). A piece starting between two instructions
  /// implies a move, whose target register must have no other holder
  /// at that slot. Where the allocation has pieces, every register must
  /// have at most one holder at a block's top: cross-edge moves are
  /// resolved on the edge, so a collision there is two values targeting
  /// one register with no definition in sight.
  void walkBlocks(const Lists &LiveOut) {
    const bool Pieced = !A.Pieces.empty();
    struct Event {
      uint32_t Slot;
      VRegId V;
    };
    std::vector<Event> Events;
    for (VRegId V = 0; V < SpansOf.size(); ++V) {
      const std::vector<Span> &Sp = SpansOf[V];
      for (size_t J = 0; J < Sp.size(); ++J) {
        Events.push_back({Sp[J].From, V});
        if (J + 1 == Sp.size() || Sp[J + 1].From != Sp[J].To)
          Events.push_back({Sp[J].To, V});
      }
    }
    std::sort(Events.begin(), Events.end(),
              [](const Event &L, const Event &R) { return L.Slot > R.Slot; });
    for (unsigned C = 0; C < NumRegClasses; ++C)
      Holders[C].assign(A.Machine.numRegs(static_cast<RegClass>(C)), {});
    HolderPos.assign(F.numVRegs(), 0);

    size_t Next = 0;
    TwoLevelBitSet Live(F.numVRegs());
    for (auto BIt = F.blocks().rbegin(); BIt != F.blocks().rend(); ++BIt) {
      const BasicBlock &B = *BIt;
      for (auto &ClassHolders : Holders)
        for (std::vector<VRegId> &H : ClassHolders)
          H.clear();
      Live.assign(LiveOut.of(B.Id));
      const uint32_t LastSlot =
          (FirstInst[B.Id] + uint32_t(B.Insts.size()) - 1) * 2;
      for (VRegId V : LiveOut.of(B.Id))
        hold(V, physAt(V, LastSlot));

      for (unsigned Idx = B.Insts.size(); Idx-- > 0;) {
        const Instruction &I = B.Insts[Idx];
        const uint32_t Slot = (FirstInst[B.Id] + Idx) * 2;
        // The holders are keyed at Slot; every offset is even, so the
        // write slot Slot + 1 resolves to the same registers.
        if (I.hasDef()) {
          VRegId D = I.defReg();
          int32_t DPhys = physAt(D, Slot);
          if (DPhys < 0) {
            error(B, I, "%" + F.vreg(D).Name + " is defined at slot " +
                            std::to_string(Slot + 1) +
                            " where no piece assigns it a register");
          } else {
            VRegId CopySrc =
                I.isCopy() && I.Ops[1].isReg() ? I.Ops[1].Reg : InvalidVReg;
            for (VRegId V : holders(D, DPhys))
              if (V != D && V != CopySrc)
                error(B, I,
                      regText(F.regClass(D), DPhys) + " is clobbered: %" +
                          F.vreg(D).Name + " is defined while %" +
                          F.vreg(V).Name + " is live in the same register");
          }
          if (Live.test(D)) {
            Live.reset(D);
            release(D, DPhys);
          }
        }
        I.forEachUse([&](VRegId U) {
          int32_t P = physAt(U, Slot);
          if (P < 0)
            error(B, I, "%" + F.vreg(U).Name + " is read at slot " +
                            std::to_string(Slot) +
                            " where no piece assigns it a register");
          if (!Live.test(U)) {
            Live.set(U);
            hold(U, P);
          }
        });

        // Live is now the set live just before I. Cross the piece
        // boundaries at Slot, back to the previous instruction's slot.
        while (Next < Events.size() && Events[Next].Slot > Slot)
          ++Next;
        size_t End = Next;
        while (End < Events.size() && Events[End].Slot == Slot)
          ++End;
        if (Idx == 0)
          continue;
        for (size_t K = Next; K < End; ++K) {
          VRegId V = Events[K].V;
          int32_t POld = physAt(V, Slot - 2), PNew = physAt(V, Slot);
          if (!Live.test(V) || POld < 0 || PNew < 0 || POld == PNew)
            continue;
          for (VRegId W : holders(V, PNew))
            if (W != V)
              error(B, I,
                    "piece move puts %" + F.vreg(V).Name + " into " +
                        regText(F.regClass(V), PNew) + " while %" +
                        F.vreg(W).Name + " occupies it");
        }
        for (size_t K = Next; K < End; ++K) {
          VRegId V = Events[K].V;
          int32_t POld = physAt(V, Slot - 2), PNew = physAt(V, Slot);
          if (Live.test(V) && POld != PNew) {
            release(V, PNew);
            hold(V, POld);
          }
        }
      }

      if (!Pieced)
        continue;
      for (unsigned C = 0; C < NumRegClasses; ++C)
        for (unsigned Phys = 0; Phys < Holders[C].size(); ++Phys) {
          const std::vector<VRegId> &H = Holders[C][Phys];
          for (size_t K = 1; K < H.size(); ++K)
            error(B, B.Insts.front(),
                  "at block entry %" + F.vreg(H[K]).Name + " and %" +
                      F.vreg(H[0]).Name + " both occupy " +
                      regText(static_cast<RegClass>(C), int32_t(Phys)));
        }
    }
  }

  /// One piece of a split range, indexed per vreg by checkPieces.
  struct Span {
    uint32_t From;
    uint32_t To;
    uint32_t Phys;
  };

  const Function &F;
  const AllocationResult &A;
  std::vector<std::vector<Span>> SpansOf;  ///< Empty vector = unsplit.
  std::vector<uint32_t> FirstInst;         ///< Block -> first instr index.
  std::vector<std::vector<uint32_t>> Preds; ///< Block -> predecessors.
  /// Per class, per physical register: the live values it holds.
  std::array<std::vector<std::vector<VRegId>>, NumRegClasses> Holders;
  std::vector<uint32_t> HolderPos; ///< Live value -> index in its list.
  std::vector<std::string> Errors;
};

} // namespace

Status ra::validateForAllocation(const Function &F) {
  auto Fail = [&](std::string Msg) {
    return Status::error(StatusCode::InvalidInput, std::move(Msg));
  };
  if (F.numBlocks() == 0)
    return Fail("function has no blocks");
  for (const BasicBlock &B : F.blocks()) {
    if (B.Insts.empty())
      return Fail("block " + B.Name + " is empty");
    for (unsigned Idx = 0, E = B.Insts.size(); Idx != E; ++Idx) {
      const Instruction &I = B.Insts[Idx];
      auto FailAt = [&](const char *Msg) {
        return Fail(where(F, B, I) + ": " + Msg);
      };
      if (I.isTerminator() != (Idx + 1 == E))
        return FailAt(Idx + 1 == E ? "block does not end in a terminator"
                                   : "terminator in the middle of a block");
      for (const Operand &O : I.Ops) {
        if (O.isReg() && O.Reg >= F.numVRegs())
          return FailAt("register id out of range");
        if (O.isBlock() && O.Block >= F.numBlocks())
          return FailAt("branch to out-of-range block");
      }
      if (I.hasDef() && (I.Ops.empty() || !I.Ops[0].isReg()))
        return FailAt("malformed definition");
      if ((I.Op == Opcode::SpillLd || I.Op == Opcode::SpillSt) &&
          (I.Ops.size() != 2 || !I.Ops[0].isReg() ||
           I.Ops[1].K != Operand::Kind::IntImm))
        return FailAt("malformed spill instruction");
    }
  }
  return Status();
}

std::vector<std::string> ra::auditAllocation(const Function &F,
                                             const AllocationResult &A) {
  RA_TRACE_SPAN("AllocationAudit", "regalloc");
  return Auditor(F, A).run();
}

Status ra::auditAllocationStatus(const Function &F,
                                 const AllocationResult &A) {
  std::vector<std::string> Errors = auditAllocation(F, A);
  if (Errors.empty())
    return Status();
  constexpr unsigned MaxShown = 3;
  std::string Msg;
  for (unsigned I = 0; I < Errors.size() && I < MaxShown; ++I)
    Msg += (I ? "; " : "") + Errors[I];
  if (Errors.size() > MaxShown)
    Msg += "; ... (" + std::to_string(Errors.size()) + " audit errors total)";
  return Status::error(StatusCode::AuditFailure, std::move(Msg));
}
