//===- sched/GlobalScheduler.cpp - PDG-based global scheduling -------------===//

#include "sched/GlobalScheduler.h"

#include "analysis/Liveness.h"
#include "ir/Checkpoint.h"
#include "obs/Trace.h"
#include "sched/Heuristics.h"
#include "sched/ListScheduler.h"
#include "sched/Renaming.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

using namespace gis;

GlobalSchedStats GlobalScheduler::scheduleRegion(Function &F,
                                                 const SchedRegion &R,
                                                 Status *Err,
                                                 const Liveness *WaveLV,
                                                 const obs::SchedSink &Sink,
                                                 PDG *OutPDG,
                                                 RegionSnapshot *Snap) {
  GlobalSchedStats Stats;
  if (Err)
    *Err = Status::ok();
  if (Opts.Level == SchedLevel::None)
    return Stats;

  // Recoverable failure: report through Err when the caller can roll back,
  // abort otherwise (the historical fail-fast contract).
  Status Failure;
  auto Fail = [&](ErrorCode Code, std::string Msg) {
    if (Failure.isOk())
      Failure = Status::error(Code, std::move(Msg));
    if (!Err)
      fatalError(__FILE__, __LINE__, Failure.str().c_str());
  };

  // Built on F before any motion; the export hands the verifier the exact
  // graph this pass scheduled against (content-identical to rebuilding on
  // the pre-pass function, since the PDG is immutable once built).
  PDG P = PDG::build(F, R, MD, Opts.Cache);
  if (OutPDG)
    *OutPDG = P;
  const DataDeps &DD = P.dataDeps();
  Stats.RegionsScheduled = 1;

  auto BumpObs = [&](obs::CounterId Id, uint64_t N = 1) {
    if (Sink.Counters)
      Sink.Counters->bump(Id, N);
  };
  {
    DataDeps::Stats DS = DD.stats();
    BumpObs(obs::ColdArenaBytes, DS.ArenaBytes);
    BumpObs(obs::ColdDdgNodes, DS.Nodes);
  }

  // Topological position of each region node (for the Fixed/Blocked
  // disposition of non-candidate predecessors).
  std::vector<unsigned> TopoPos(R.numNodes(), ~0u);
  for (unsigned K = 0; K != R.topoOrder().size(); ++K)
    TopoPos[R.topoOrder()[K]] = K;

  // Current placement of every DDG node; updated as instructions move.
  std::vector<unsigned> CurNode(DD.numNodes());
  for (unsigned N = 0; N != DD.numNodes(); ++N)
    CurNode[N] = DD.ddgNode(N).RegionNode;

  // Live-on-exit sets, maintained dynamically (Section 5.3): re-solved
  // lazily after motions and renames.  The view is region-restricted, its
  // out-of-region boundary frozen from the wave-start liveness, so a
  // re-solve touches only the region's blocks and the task reads nothing
  // outside its region (analysis/Liveness.h).
  std::optional<Liveness> EntryLV;
  if (!WaveLV)
    WaveLV = &EntryLV.emplace(Liveness::compute(F));
  RegionLiveness LV = RegionLiveness::build(F, R, *WaveLV);
  bool LivenessStale = false;
  auto FreshenLiveness = [&]() {
    if (!LivenessStale)
      return;
    LV.recompute(F);
    BumpObs(obs::ColdLivenessFull);
    LivenessStale = false;
  };
  std::function<bool(BlockId, Reg)> IsLiveOut = [&](BlockId B, Reg Rg) {
    return LV.isLiveOut(B, Rg);
  };

  unsigned SpecDepth =
      Opts.Level == SchedLevel::Speculative ? Opts.MaxSpecDepth : 0;

  // Heuristics reflect the current placement; recomputed at a target
  // block when earlier blocks' motions changed block contents.
  Heuristics H = computeHeuristics(F, DD, MD, CurNode);
  bool HeurStale = false;

  // Process the region's real blocks in topological order.
  for (unsigned A : R.topoOrder()) {
    const RegionNode &ANode = R.node(A);
    if (!ANode.isBlock())
      continue;
    BlockId ABlock = ANode.Block;
    ++Stats.BlocksScheduled;
    obs::TraceSpan BlockSpan("block", "sched", "block",
                             static_cast<int64_t>(ABlock));

    if (HeurStale) {
      H = computeHeuristics(F, DD, MD, CurNode);
      HeurStale = false;
    }

    // Own instructions, in current program order.
    std::vector<unsigned> Own;
    for (InstrId I : F.block(ABlock).instrs()) {
      int N = DD.nodeOfInstr(I);
      if (N < 0) {
        Fail(ErrorCode::SchedulerInconsistency,
             "instruction in region block missing from DDG");
        break;
      }
      Own.push_back(static_cast<unsigned>(N));
    }
    if (!Failure.isOk())
      break;

    // U(A) = A union EQUIV(A) decides the useful/speculative class.
    std::vector<unsigned> Equiv = P.equivSet(A);
    std::unordered_set<unsigned> UofA(Equiv.begin(), Equiv.end());
    UofA.insert(A);

    // Candidate instructions from C(A) (Section 5.1), by *current*
    // placement.
    std::vector<EngineCandidate> External;
    for (unsigned Bn : P.candidateBlocks(A, SpecDepth)) {
      const RegionNode &BNode = R.node(Bn);
      if (!BNode.isBlock())
        continue; // summaries contribute no instructions
      bool Useful = UofA.count(Bn) != 0;
      for (InstrId I : F.block(BNode.Block).instrs()) {
        int N = DD.nodeOfInstr(I);
        if (N < 0 || CurNode[N] != Bn)
          continue;
        const Instruction &Ins = F.instr(I);
        if (Ins.neverCrossesBlock())
          continue;
        if (!Useful && Ins.neverSpeculates())
          continue;
        EngineCandidate C;
        C.DDGNode = static_cast<unsigned>(N);
        C.Useful = Useful;
        C.Speculative = !Useful;
        if (Opts.Profile && !Useful)
          C.Freq = Opts.Profile->frequency(F, BNode.Block);
        External.push_back(C);
      }
    }

    auto Disposition = [&](unsigned Pred) {
      return TopoPos[CurNode[Pred]] < TopoPos[A] ? PredDisposition::Fixed
                                                 : PredDisposition::Blocked;
    };

    // Section 5.3 guard: a speculative instruction must not write a
    // register that is live on exit from A.  Renaming rescues the common
    // local-value case (Figure 6's cr6 -> cr5).
    auto SpecCheck = [&](unsigned Node) {
      if (!Failure.isOk())
        return false; // already failing: no further motion
      InstrId I = DD.ddgNode(Node).Instr;
      FreshenLiveness();
      // Collect conflicting defs first; rename only if all are renameable.
      std::vector<Reg> Conflicts;
      for (Reg D : F.instr(I).defs())
        if (IsLiveOut(ABlock, D))
          Conflicts.push_back(D);
      if (Conflicts.empty())
        return true;
      if (!Opts.EnableRenaming) {
        ++Stats.VetoedSpeculations;
        BumpObs(obs::SpecVetoLiveOut);
        return false;
      }
      // An instruction reading the register it rewrites (LU-style base
      // update) cannot be detached from the old value by local renaming.
      BlockId Home = R.node(CurNode[Node]).Block;
      for (Reg D : Conflicts)
        if (F.instr(I).usesReg(D)) {
          ++Stats.VetoedSpeculations;
          BumpObs(obs::SpecVetoLiveOut);
          return false;
        }
      // A rename rewrites pool entries of the home block only (the def
      // and its block-local uses); save them before the first one.
      if (Snap)
        for (InstrId Entry : F.block(Home).instrs())
          Snap->noteInstr(Entry);
      for (Reg D : Conflicts) {
        if (!renameLocalDef(F, Home, I, D, IsLiveOut)) {
          ++Stats.VetoedSpeculations;
          BumpObs(obs::SpecVetoLiveOut);
          return false; // earlier successful renames remain; still sound
        }
        ++Stats.Renames;
        BumpObs(obs::SpecRenames);
        LivenessStale = true;
      }
      return true;
    };

    // The paper moves a picked instruction immediately ("once an
    // instruction is picked up to be scheduled, it is moved to the proper
    // place in the code"), keeping live-on-exit information current for
    // subsequent speculative checks within the same target block.
    auto OnSchedule = [&](unsigned Node, bool IsExternal) {
      if (!IsExternal)
        return;
      InstrId I = DD.ddgNode(Node).Instr;
      unsigned From = CurNode[Node];
      BlockId Home = R.node(From).Block;
      std::vector<InstrId> &HomeInstrs = F.block(Home).instrs();
      auto It = std::find(HomeInstrs.begin(), HomeInstrs.end(), I);
      if (It == HomeInstrs.end()) {
        Fail(ErrorCode::SchedulerInconsistency,
             "moved instruction not found at its home block");
        return;
      }
      HomeInstrs.erase(It);
      // Placed at the end of A for now; the final intra-block order is
      // installed after the engine finishes.
      F.block(ABlock).instrs().push_back(I);
      CurNode[Node] = A;
      LivenessStale = true;
      HeurStale = true;
      if (UofA.count(From))
        ++Stats.UsefulMotions;
      else
        ++Stats.SpeculativeMotions;
    };

    EngineObs Obs;
    Obs.Counters = Sink.Counters;
    Obs.Decisions = Sink.Decisions;
    Obs.Stage = "global";
    Obs.TargetBlock = ABlock;
    Obs.HomeBlock = [&](unsigned Node) { return R.node(CurNode[Node]).Block; };

    ListScheduler Engine(F, DD, MD, H, Opts.Order);
    EngineResult Sched =
        Engine.run(Own, External, Disposition, SpecCheck, OnSchedule, &Obs);
    if (!Sched.S.isOk())
      Fail(Sched.S.code(), Sched.S.message());
    if (!Failure.isOk())
      break;

    // Install A's final intra-block order.
    std::vector<InstrId> NewContents;
    NewContents.reserve(Sched.Order.size());
    for (unsigned Node : Sched.Order)
      NewContents.push_back(DD.ddgNode(Node).Instr);
    if (NewContents.size() != F.block(ABlock).instrs().size()) {
      Fail(ErrorCode::SchedulerInconsistency,
           "scheduled order does not cover exactly the block contents");
      break;
    }
    F.block(ABlock).instrs() = std::move(NewContents);
  }

  if (Err)
    *Err = Failure;
  return Stats;
}
