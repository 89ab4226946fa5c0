//===- sched/ListScheduler.cpp - Cycle-by-cycle list scheduler -------------===//

#include "sched/ListScheduler.h"

#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/Format.h"

#include <algorithm>
#include <queue>

using namespace gis;

namespace {

/// Per-candidate scheduling state.
struct CandState {
  unsigned DDGNode;
  bool Own;
  bool Useful;
  bool Speculative;
  uint64_t Freq = 0;
  bool IsTerminator;
  unsigned PredsRemaining = 0; ///< unscheduled candidate predecessors
  uint64_t ReadyTime = 0;
  bool Scheduled = false;
  bool Dropped = false;
};

/// Counter bucket for a comparator-rule win.
obs::CounterId counterOfRule(obs::RuleId Rule) {
  switch (Rule) {
  case obs::RuleId::UsefulOverSpec:
    return obs::RuleUsefulOverSpec;
  case obs::RuleId::SpecFreq:
    return obs::RuleSpecFreq;
  case obs::RuleId::DelayUseful:
    return obs::RuleDelayUseful;
  case obs::RuleId::DelaySpec:
    return obs::RuleDelaySpec;
  case obs::RuleId::CritPathUseful:
    return obs::RuleCritPathUseful;
  case obs::RuleId::CritPathSpec:
    return obs::RuleCritPathSpec;
  case obs::RuleId::SourceOrder:
  case obs::RuleId::None:
    break;
  }
  return obs::RuleSourceOrder;
}

} // namespace

EngineResult ListScheduler::run(
    const std::vector<unsigned> &Own,
    const std::vector<EngineCandidate> &External,
    const std::function<PredDisposition(unsigned)> &Disposition,
    const std::function<bool(unsigned)> &SpecCheck,
    const std::function<void(unsigned, bool)> &OnSchedule,
    const EngineObs *Obs) {
  EngineResult Result;
  auto Fail = [&](ErrorCode Code, std::string Msg) {
    Result.S = Status::error(Code, std::move(Msg));
  };

  // Candidate table and DDG-node -> candidate index map (NoCand for nodes
  // that are not candidates), both sized once per run.
  constexpr unsigned NoCand = ~0u;
  std::vector<CandState> Cands;
  Cands.reserve(Own.size() + External.size());
  std::vector<unsigned> CandOf(DD.numNodes(), NoCand);
  auto AddCand = [&](unsigned Node, bool IsOwn, bool Useful, bool Spec,
                     uint64_t Freq) {
    CandState C;
    C.DDGNode = Node;
    C.Own = IsOwn;
    C.Useful = Useful;
    C.Speculative = Spec;
    C.Freq = Freq;
    const DataDeps::Node &N = DD.ddgNode(Node);
    if (N.isBarrier())
      return Fail(ErrorCode::SchedulerInconsistency,
                  "barrier node offered as a scheduling candidate");
    if (CandOf[Node] != NoCand)
      return Fail(ErrorCode::SchedulerInconsistency,
                  formatString("instruction %u offered as a candidate twice",
                               N.Instr));
    C.IsTerminator = F.instr(N.Instr).isTerminator();
    CandOf[Node] = static_cast<unsigned>(Cands.size());
    Cands.push_back(C);
  };
  for (unsigned Node : Own)
    AddCand(Node, /*IsOwn=*/true, /*Useful=*/true, /*Spec=*/false,
            /*Freq=*/0);
  for (const EngineCandidate &E : External)
    AddCand(E.DDGNode, /*IsOwn=*/false, E.Useful, E.Speculative, E.Freq);
  if (!Result.S.isOk())
    return Result;

  // Resolve predecessors: count candidate preds, detect blocked ones.
  for (CandState &C : Cands) {
    for (unsigned EIdx : DD.predEdges(C.DDGNode)) {
      unsigned P = DD.edges()[EIdx].From;
      if (CandOf[P] != NoCand) {
        ++C.PredsRemaining;
        continue;
      }
      if (Disposition(P) == PredDisposition::Blocked) {
        if (C.Own) {
          Fail(ErrorCode::SchedulerInconsistency,
               "own instruction depends on a blocked external");
          return Result;
        }
        C.Dropped = true;
      }
    }
  }

  // Propagate drops: a candidate depending on a dropped candidate can
  // never be scheduled either.  One pass in node order suffices (edges go
  // forward).
  for (CandState &C : Cands) {
    if (C.Dropped)
      continue;
    for (unsigned EIdx : DD.predEdges(C.DDGNode)) {
      unsigned P = CandOf[DD.edges()[EIdx].From];
      if (P != NoCand && Cands[P].Dropped) {
        if (C.Own) {
          Fail(ErrorCode::SchedulerInconsistency,
               "own instruction depends on a dropped external");
          return Result;
        }
        C.Dropped = true;
        break;
      }
    }
  }

  // Priority comparator (Section 5.2 rules, in the configured order).
  auto CmpClass = [&](const CandState &A, const CandState &B) -> int {
    return A.Useful == B.Useful ? 0 : (A.Useful ? 1 : -1);
  };
  auto CmpD = [&](const CandState &A, const CandState &B) -> int {
    unsigned DA = H.D[A.DDGNode], DB = H.D[B.DDGNode];
    return DA == DB ? 0 : (DA > DB ? 1 : -1);
  };
  auto CmpCP = [&](const CandState &A, const CandState &B) -> int {
    unsigned CPA = H.CP[A.DDGNode], CPB = H.CP[B.DDGNode];
    return CPA == CPB ? 0 : (CPA > CPB ? 1 : -1);
  };
  // Profile tie-break among speculative candidates: a motion from a more
  // frequently executed block gambles on a likelier branch outcome.
  auto CmpFreq = [&](const CandState &A, const CandState &B) -> int {
    if (!A.Speculative || !B.Speculative || A.Freq == B.Freq)
      return 0;
    return A.Freq > B.Freq ? 1 : -1;
  };
  auto Better = [&](const CandState &A, const CandState &B) {
    int R = 0;
    switch (Order) {
    case PriorityOrder::Paper:
      if ((R = CmpClass(A, B)) || (R = CmpFreq(A, B)) || (R = CmpD(A, B)) ||
          (R = CmpCP(A, B)))
        return R > 0;
      break;
    case PriorityOrder::DelayFirst:
      if ((R = CmpD(A, B)) || (R = CmpClass(A, B)) || (R = CmpFreq(A, B)) ||
          (R = CmpCP(A, B)))
        return R > 0;
      break;
    case PriorityOrder::CriticalFirst:
      if ((R = CmpCP(A, B)) || (R = CmpClass(A, B)) || (R = CmpFreq(A, B)) ||
          (R = CmpD(A, B)))
        return R > 0;
      break;
    case PriorityOrder::SourceOrder:
      break;
    }
    return F.instr(DD.ddgNode(A.DDGNode).Instr).originalOrder() <
           F.instr(DD.ddgNode(B.DDGNode).Instr).originalOrder(); // rule 7
  };

  // Attribution mirror of Better(): the first comparator (in the
  // configured order) that separates the winner W from the runner-up L.
  // The D and CP wins are split by the winner's class so the paper's rule
  // pairs 3/4 and 5/6 get distinct counters.
  auto RuleOf = [&](const CandState &W, const CandState &L) -> obs::RuleId {
    auto DRule = [&] {
      return W.Useful ? obs::RuleId::DelayUseful : obs::RuleId::DelaySpec;
    };
    auto CPRule = [&] {
      return W.Useful ? obs::RuleId::CritPathUseful
                      : obs::RuleId::CritPathSpec;
    };
    switch (Order) {
    case PriorityOrder::Paper:
      if (CmpClass(W, L))
        return obs::RuleId::UsefulOverSpec;
      if (CmpFreq(W, L))
        return obs::RuleId::SpecFreq;
      if (CmpD(W, L))
        return DRule();
      if (CmpCP(W, L))
        return CPRule();
      break;
    case PriorityOrder::DelayFirst:
      if (CmpD(W, L))
        return DRule();
      if (CmpClass(W, L))
        return obs::RuleId::UsefulOverSpec;
      if (CmpFreq(W, L))
        return obs::RuleId::SpecFreq;
      if (CmpCP(W, L))
        return CPRule();
      break;
    case PriorityOrder::CriticalFirst:
      if (CmpCP(W, L))
        return CPRule();
      if (CmpClass(W, L))
        return obs::RuleId::UsefulOverSpec;
      if (CmpFreq(W, L))
        return obs::RuleId::SpecFreq;
      if (CmpD(W, L))
        return DRule();
      break;
    case PriorityOrder::SourceOrder:
      break;
    }
    return obs::RuleId::SourceOrder;
  };

  // Unit occupancy: busy-until per unit instance, one flat table; type T's
  // instances are UnitBusy[UnitBase[T] .. UnitBase[T + 1]).
  std::vector<unsigned> UnitBase(MD.numUnitTypes() + 1, 0);
  for (unsigned T = 0; T != MD.numUnitTypes(); ++T)
    UnitBase[T + 1] = UnitBase[T] + MD.unitType(T).Count;
  std::vector<uint64_t> UnitBusy(UnitBase.back(), 0);

  unsigned OwnRemaining = static_cast<unsigned>(Own.size());
  uint64_t Cycle = 0;
  constexpr uint64_t CycleCap = 1'000'000;

  // Incremental ready pool (DESIGN.md section 14).  A candidate enters the
  // pool exactly once, when its candidate-predecessor count hits zero; at
  // that point its ReadyTime is final, because only scheduled predecessors
  // ever raise it.  Future holds pool entries whose ReadyTime is still in
  // the future, keyed by it; Live holds the currently eligible ones.  The
  // target block's own terminator is held aside until it is the last own
  // instruction, mirroring the full scan's positional gate.
  //
  // The loop's containers are reserved once here, not per cycle: a
  // candidate enters each of them at most once per run (HeldTerm holds at
  // most the target block's terminator).
  std::vector<std::pair<uint64_t, unsigned>> FutureStore;
  std::vector<unsigned> Live, HeldTerm, Ready;
  if (Incremental) {
    FutureStore.reserve(Cands.size());
    Live.reserve(Cands.size());
  }
  Ready.reserve(Cands.size());
  Result.Order.reserve(Cands.size());
  Result.Cycles.reserve(Cands.size());
  std::priority_queue<std::pair<uint64_t, unsigned>,
                      std::vector<std::pair<uint64_t, unsigned>>,
                      std::greater<std::pair<uint64_t, unsigned>>>
      Future(std::greater<std::pair<uint64_t, unsigned>>(),
             std::move(FutureStore));
  if (Incremental)
    for (unsigned K = 0; K != Cands.size(); ++K) {
      const CandState &C = Cands[K];
      if (C.Dropped || C.PredsRemaining > 0)
        continue;
      if (C.Own && C.IsTerminator && OwnRemaining > 1)
        HeldTerm.push_back(K);
      else
        Future.push({C.ReadyTime, K});
    }

  auto OnScheduled = [&](CandState &C, uint64_t At) {
    C.Scheduled = true;
    Result.Order.push_back(C.DDGNode);
    Result.Cycles.push_back(At);
    unsigned Exec = MD.execTime(F.instr(DD.ddgNode(C.DDGNode).Instr).opcode());
    if (C.Own)
      Result.Makespan = std::max(Result.Makespan, At + Exec);
    // Release successors.
    for (unsigned EIdx : DD.succEdges(C.DDGNode)) {
      const DepEdge &E = DD.edges()[EIdx];
      unsigned SI = CandOf[E.To];
      if (SI == NoCand)
        continue;
      CandState &S = Cands[SI];
      if (S.PredsRemaining == 0) {
        Fail(ErrorCode::SchedulerInconsistency,
             "predecessor count underflow while releasing successors");
        return;
      }
      --S.PredsRemaining;
      S.ReadyTime = std::max(S.ReadyTime, At + Exec + E.Delay);
      if (Incremental && S.PredsRemaining == 0 && !S.Dropped) {
        if (S.Own && S.IsTerminator && OwnRemaining > 1)
          HeldTerm.push_back(SI);
        else
          Future.push({S.ReadyTime, SI});
      }
    }
  };

  while (OwnRemaining > 0) {
    if (Cycle >= CycleCap) {
      Fail(ErrorCode::SchedulerDivergence,
           formatString("no forward progress after %llu cycles (%u own "
                        "instructions unplaced)",
                        static_cast<unsigned long long>(CycleCap),
                        OwnRemaining));
      return Result;
    }

    // Ready list for this cycle, best-first.  The comparator is a strict
    // total order (rule 7 breaks every tie on the unique original order),
    // so equal ready *sets* sort to equal sequences -- which is what makes
    // the event-driven pool below bit-identical to the full scan.
    Ready.clear();
    auto EligibleNow = [&](const CandState &C) {
      if (C.Scheduled || C.Dropped || C.PredsRemaining > 0 ||
          C.ReadyTime > Cycle)
        return false;
      // The target block's terminator stays positionally last: gate it
      // until it is the only own instruction left.
      if (C.Own && C.IsTerminator && OwnRemaining > 1)
        return false;
      return true;
    };
    if (Incremental) {
      while (!Future.empty() && Future.top().first <= Cycle) {
        Live.push_back(Future.top().second);
        Future.pop();
      }
      Live.erase(std::remove_if(Live.begin(), Live.end(),
                                [&](unsigned K) {
                                  return Cands[K].Scheduled ||
                                         Cands[K].Dropped;
                                }),
                 Live.end());
      if (Live.empty()) {
        // Fast-forward: with nothing live, the full scan would emit no
        // trace and pick nothing until the next ReadyTime threshold, so
        // jumping straight there is observably identical.  With no future
        // event either, jump to the cap to reproduce the slow path's
        // divergence failure verbatim.
        uint64_t Next = Future.empty() ? CycleCap : Future.top().first;
#ifdef GIS_SLOWPATH_CHECK
        for (const CandState &C : Cands)
          GIS_ASSERT(!EligibleNow(C),
                     "slowpath check: fast-forward past a live candidate");
        uint64_t OracleNext = ~0ull;
        for (const CandState &C : Cands) {
          if (C.Scheduled || C.Dropped || C.PredsRemaining > 0 ||
              (C.Own && C.IsTerminator && OwnRemaining > 1))
            continue;
          OracleNext = std::min(OracleNext, C.ReadyTime);
        }
        GIS_ASSERT(Future.empty() ? OracleNext == ~0ull
                                  : OracleNext == Future.top().first,
                   "slowpath check: fast-forward target mismatch");
#endif
        if (Obs && Obs->Counters)
          Obs->Counters->bump(obs::ColdFastForwards);
        Cycle = Next;
        continue;
      }
      Ready = Live;
    } else {
      for (unsigned K = 0; K != Cands.size(); ++K)
        if (EligibleNow(Cands[K]))
          Ready.push_back(K);
    }
    std::sort(Ready.begin(), Ready.end(), [&](unsigned A, unsigned B) {
      return Better(Cands[A], Cands[B]);
    });
#ifdef GIS_SLOWPATH_CHECK
    if (Incremental) {
      // Cross-check every cycle's ready set against the full scan the
      // slow path would have made.
      std::vector<unsigned> Oracle;
      for (unsigned K = 0; K != Cands.size(); ++K)
        if (EligibleNow(Cands[K]))
          Oracle.push_back(K);
      std::sort(Oracle.begin(), Oracle.end(), [&](unsigned A, unsigned B) {
        return Better(Cands[A], Cands[B]);
      });
      GIS_ASSERT(Oracle == Ready,
                 "slowpath check: incremental ready set diverged from the "
                 "full scan");
    }
#endif
    if (!Ready.empty())
      obs::Tracer::instance().instant("cycle", "cycle", "cycle",
                                      static_cast<int64_t>(Cycle), "ready",
                                      static_cast<int64_t>(Ready.size()));

    for (size_t RI = 0; RI != Ready.size(); ++RI) {
      CandState &C = Cands[Ready[RI]];
      if (C.Scheduled || C.Dropped)
        continue;
      Opcode Op = F.instr(DD.ddgNode(C.DDGNode).Instr).opcode();
      unsigned Type = MD.unitTypeForOp(Op);
      // A free unit instance of the right type this cycle?
      int Unit = -1;
      for (unsigned UI = UnitBase[Type]; UI != UnitBase[Type + 1]; ++UI)
        if (UnitBusy[UI] <= Cycle) {
          Unit = static_cast<int>(UI);
          break;
        }
      if (Unit < 0)
        continue;

      if (C.Speculative && SpecCheck && !SpecCheck(C.DDGNode)) {
        C.Dropped = true;
        continue;
      }

      unsigned Instr = DD.ddgNode(C.DDGNode).Instr;
      obs::Tracer::instance().instant("pick", "cycle", "cycle",
                                      static_cast<int64_t>(Cycle), "instr",
                                      static_cast<int64_t>(Instr));
      if (Obs && (Obs->Counters || Obs->Decisions)) {
        // The pick is about to be issued from position RI of the sorted
        // ready list; everything still live after it is what it outranked.
        // (Live entries *before* RI were stalled on a busy unit -- the
        // pick did not beat them by rule, so they neither make the pick
        // contested nor appear in its candidate list.)
        int Runner = -1;
        std::vector<unsigned> Beaten;
        for (size_t RJ = RI + 1; RJ != Ready.size(); ++RJ) {
          const CandState &L = Cands[Ready[RJ]];
          if (L.Scheduled || L.Dropped)
            continue;
          if (Runner < 0)
            Runner = static_cast<int>(Ready[RJ]);
          if (!Obs->Decisions)
            break;
          Beaten.push_back(DD.ddgNode(L.DDGNode).Instr);
        }
        obs::RuleId Rule = obs::RuleId::None;
        if (Runner >= 0)
          Rule = RuleOf(C, Cands[static_cast<unsigned>(Runner)]);
        if (obs::CounterSet *CS = Obs->Counters) {
          CS->bump(Runner >= 0 ? obs::PicksContested
                               : obs::PicksUncontested);
          if (Runner >= 0)
            CS->bump(counterOfRule(Rule));
          if (!C.Own)
            CS->bump(C.Useful ? obs::MotionUseful : obs::MotionSpeculative);
        }
        if (Obs->Decisions) {
          obs::Decision Rec;
          Rec.Stage = Obs->Stage;
          Rec.TargetBlock = Obs->TargetBlock;
          Rec.Cycle = Cycle;
          Rec.Instr = Instr;
          Rec.Op = std::string(opcodeName(F.instr(Instr).opcode()));
          Rec.Kind = C.Own ? obs::MotionKind::Own
                           : (C.Useful ? obs::MotionKind::Useful
                                       : obs::MotionKind::Speculative);
          Rec.FromBlock =
              C.Own ? Obs->TargetBlock
                    : (Obs->HomeBlock ? Obs->HomeBlock(C.DDGNode) : 0);
          Rec.Rule = Rule;
          Rec.Candidates.reserve(1 + Beaten.size());
          Rec.Candidates.push_back(Instr);
          Rec.Candidates.insert(Rec.Candidates.end(), Beaten.begin(),
                                Beaten.end());
          Obs->Decisions->push_back(std::move(Rec));
        }
      }

      UnitBusy[static_cast<unsigned>(Unit)] = Cycle + MD.execTime(Op);
      OnScheduled(C, Cycle);
      if (!Result.S.isOk())
        return Result;
      if (OnSchedule)
        OnSchedule(C.DDGNode, !C.Own);
      if (C.Own) {
        if (--OwnRemaining == 0)
          break; // target block complete; externals stop here too
        if (Incremental && OwnRemaining == 1) {
          // The positional gate lifts next cycle, exactly when the full
          // scan would first admit the terminator.
          for (unsigned T : HeldTerm)
            Future.push({Cands[T].ReadyTime, T});
          HeldTerm.clear();
        }
      }
    }

    ++Cycle;
  }

  return Result;
}
