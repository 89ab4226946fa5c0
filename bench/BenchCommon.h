//===- bench/BenchCommon.h - Shared benchmark helpers -----------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-experiment benchmark binaries (one binary per
/// paper table/figure; see DESIGN.md section 4).  The cells of E3, E4, E5
/// and E14 are computed here, so the tier-1 table that pins them
/// (tests/eseries_test.cpp) measures exactly what the binaries print.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_BENCH_BENCHCOMMON_H
#define GIS_BENCH_BENCHCOMMON_H

#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "machine/Timing.h"
#include "sched/Pipeline.h"
#include "support/Assert.h"
#include "support/Format.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gis {
namespace bench {

/// Compiles a workload and optionally schedules it.
inline std::unique_ptr<Module>
buildWorkload(const Workload &W, const MachineDescription &MD,
              const std::optional<PipelineOptions> &Sched) {
  auto M = compileMiniCOrDie(W.Source);
  if (Sched)
    scheduleModule(*M, MD, *Sched);
  return M;
}

/// A workload interpreted with its dynamic trace and the entry function's
/// block/edge profile.
struct TracedRun {
  std::vector<TraceEntry> Trace;
  ProfileData Profile;
};

/// Interprets the compiled (possibly scheduled) module \p M of \p W.
/// Only the entry function is profiled: branches in its callees reach
/// the profile-oracle predictor without edge weights.
inline TracedRun interpretWorkload(const Workload &W, const Module &M) {
  TracedRun R;
  Interpreter I(M);
  I.enableTrace(true);
  if (W.Setup)
    W.Setup(I, M);
  Function *Entry = const_cast<Module &>(M).findFunction(W.EntryFunction);
  GIS_ASSERT(Entry, "workload entry function missing");
  GIS_ASSERT(Entry->params().size() == W.Args.size(),
             "workload argument count mismatch");
  for (size_t K = 0; K != W.Args.size(); ++K)
    I.setReg(Entry->params()[K], W.Args[K]);
  ExecResult Res = I.run(*Entry, W.MaxSteps);
  GIS_ASSERT(!Res.Trapped, "workload trapped");
  R.Trace = I.trace();
  R.Profile.record(*Entry, I.blockCounts());
  R.Profile.recordEdges(*Entry, I.edgeCounts());
  return R;
}

/// Runs a compiled workload and returns the simulated cycle count.
inline uint64_t runWorkloadCycles(const Workload &W, const Module &M,
                                  const MachineDescription &MD) {
  TimingSimulator Sim(MD);
  return Sim.simulate(interpretWorkload(W, M).Trace).Cycles;
}

/// Convenience: compile [+ schedule] + run, returning cycles.
inline uint64_t workloadCycles(const Workload &W, const MachineDescription &MD,
                               const std::optional<PipelineOptions> &Sched) {
  auto M = buildWorkload(W, MD, Sched);
  return runWorkloadCycles(W, *M, MD);
}

/// Baseline pipeline configuration: the paper's BASE compiler has global
/// scheduling disabled (basic-block scheduling stays on).
inline PipelineOptions baseOptions() {
  PipelineOptions Opts;
  Opts.Level = SchedLevel::None;
  Opts.EnableUnroll = false;
  Opts.EnableRotate = false;
  return Opts;
}

/// Useful-only global scheduling (the paper's first RTI column).
inline PipelineOptions usefulOptions() {
  PipelineOptions Opts;
  Opts.Level = SchedLevel::Useful;
  return Opts;
}

/// Useful + 1-branch speculative (the paper's second RTI column).
inline PipelineOptions speculativeOptions() {
  PipelineOptions Opts;
  Opts.Level = SchedLevel::Speculative;
  return Opts;
}

/// E4's machine with \p FixedUnits fixed-point units (two branch units
/// from width two on).
inline MachineDescription machineOfWidth(unsigned FixedUnits) {
  return MachineDescription::superscalar(FixedUnits, 1,
                                         FixedUnits > 1 ? 2 : 1);
}

/// One priority-rule ordering of E5's ablation.
struct OrderRow {
  PriorityOrder Order;
  const char *Name;
};

inline constexpr OrderRow PriorityOrders[] = {
    {PriorityOrder::Paper, "class,D,CP (paper)"},
    {PriorityOrder::DelayFirst, "D,class,CP"},
    {PriorityOrder::CriticalFirst, "CP,class,D"},
    {PriorityOrder::SourceOrder, "source order"},
};

/// E5's pipeline: speculative scheduling under rule ordering \p O.
inline PipelineOptions withOrder(PriorityOrder O) {
  PipelineOptions Opts = speculativeOptions();
  Opts.Order = O;
  return Opts;
}

/// E14's predictor models, in column order.
inline constexpr PredictorKind PredictorKinds[] = {
    PredictorKind::None, PredictorKind::AlwaysTaken,
    PredictorKind::Bimodal2Bit, PredictorKind::ProfileOracle};
inline constexpr const char *PredictorNames[] = {"none", "taken", "bimodal",
                                                 "oracle"};

/// One E14 row: a workload under one scheduling configuration, its
/// cycles and mispredicts per predictor model, the profile-oracle's
/// fallbacks, and the growth the superblock pass charged.
struct SuperblockRow {
  uint64_t Cycles[4] = {0, 0, 0, 0};
  uint64_t Mispredicts[4] = {0, 0, 0, 0};
  uint64_t OracleFallbacks = 0;
  unsigned TailDupInstrs = 0;
  unsigned Superblocks = 0;
};

/// Measures one E14 row: profiles a plain compile of \p W (profile-guided
/// formation wants edge counts for the source CFG it carves traces from),
/// schedules speculatively on \p MD with superblocks \p Superblocks, and
/// prices the scheduled run's trace under every predictor, the oracle
/// reading a fresh profile of that run (block ids moved).
inline SuperblockRow measureSuperblockRow(const Workload &W,
                                          const MachineDescription &MD,
                                          bool Superblocks) {
  auto Profiled = compileMiniCOrDie(W.Source);
  TracedRun Prof = interpretWorkload(W, *Profiled);

  auto M = compileMiniCOrDie(W.Source);
  PipelineOptions Opts = speculativeOptions();
  Opts.EnableSuperblocks = Superblocks;
  Opts.Profile = &Prof.Profile;
  PipelineStats Stats = scheduleModule(*M, MD, Opts);

  SuperblockRow R;
  R.TailDupInstrs = Stats.TailDupInstrs;
  R.Superblocks = Stats.SuperblocksScheduled;
  TracedRun Run = interpretWorkload(W, *M);
  for (unsigned K = 0; K != 4; ++K) {
    TimingSimulator Sim(MD);
    BranchPredictorOptions PO;
    PO.Kind = PredictorKinds[K];
    PO.Profile = &Run.Profile;
    Sim.setPredictor(PO);
    TimingResult T = Sim.simulate(Run.Trace);
    R.Cycles[K] = T.Cycles;
    R.Mispredicts[K] = T.Mispredicts;
    if (PredictorKinds[K] == PredictorKind::ProfileOracle)
      R.OracleFallbacks = T.OracleFallbacks;
  }
  return R;
}

/// Wall-clock seconds of one call to \p Fn, repeated until at least ~20ms
/// have elapsed, divided by the repetition count.
template <typename CallableT> double secondsPerCall(CallableT Fn) {
  using Clock = std::chrono::steady_clock;
  unsigned Reps = 1;
  while (true) {
    auto Start = Clock::now();
    for (unsigned K = 0; K != Reps; ++K)
      Fn();
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - Start).count();
    if (Elapsed > 0.02 || Reps >= 1u << 20)
      return Elapsed / Reps;
    Reps *= 4;
  }
}

/// Scheduling-only wall-clock seconds for one workload: seconds per
/// compile+schedule call minus seconds per compile-only call.  Used to
/// compare pipeline configurations whose run-time output is identical but
/// whose compile-time cost differs (e.g. the transactional layer's
/// checkpoint/verify overhead).
inline double scheduleOnlySeconds(const Workload &W,
                                  const MachineDescription &MD,
                                  const PipelineOptions &Opts) {
  double CompileOnly = secondsPerCall([&] {
    auto M = compileMiniCOrDie(W.Source);
    GIS_ASSERT(M, "workload must compile");
  });
  double Total = secondsPerCall([&] {
    auto M = compileMiniCOrDie(W.Source);
    scheduleModule(*M, MD, Opts);
  });
  return Total > CompileOnly ? Total - CompileOnly : 0.0;
}

/// Total rollbacks recorded while scheduling one workload (should be zero
/// outside fault injection; reported so regressions are visible).
inline unsigned scheduleRollbacks(const Workload &W,
                                  const MachineDescription &MD,
                                  const PipelineOptions &Opts) {
  auto M = compileMiniCOrDie(W.Source);
  PipelineStats Stats = scheduleModule(*M, MD, Opts);
  return Stats.RegionsRolledBack + Stats.TransformsRolledBack;
}

/// Prints a horizontal rule sized for our tables.
inline void rule(unsigned Width = 72) {
  std::fputs((std::string(Width, '-') + "\n").c_str(), stdout);
}

/// Hardware threads of the host, never zero (hardware_concurrency() may
/// return 0 when the count is unknowable).  Thread-scaling measurements
/// are only interpretable relative to this number, so every BENCH_*.json
/// blob records it.
inline unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

/// The whole file at \p Path; empty when it cannot be read.
inline std::string readFileText(const char *Path) {
  std::string Text;
  if (std::FILE *In = std::fopen(Path, "r")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
      Text.append(Buf, N);
    std::fclose(In);
  }
  return Text;
}

/// The top-level members of a JSON object: each key with the raw text of
/// its value, in document order.
using JsonMembers = std::vector<std::pair<std::string, std::string>>;

/// Splits the top-level object of \p Doc into its members, leaving every
/// value's text untouched (nested objects, arrays and strings are skipped
/// by bracket depth).  Empty for an empty or malformed document.
inline JsonMembers splitJsonObject(const std::string &Doc) {
  JsonMembers Members;
  size_t P = Doc.find('{');
  if (P == std::string::npos)
    return Members;
  ++P;
  auto SkipSpace = [&] {
    while (P < Doc.size() && std::isspace(static_cast<unsigned char>(Doc[P])))
      ++P;
  };
  auto SkipString = [&] { // from the opening quote to past the closing one
    for (++P; P < Doc.size() && Doc[P] != '"'; ++P)
      if (Doc[P] == '\\')
        ++P;
    P = std::min(P + 1, Doc.size());
  };
  while (true) {
    SkipSpace();
    if (P >= Doc.size() || Doc[P] != '"')
      break; // the closing brace
    size_t KeyStart = P + 1;
    SkipString();
    std::string Key = Doc.substr(KeyStart, P - 1 - KeyStart);
    SkipSpace();
    if (P >= Doc.size() || Doc[P] != ':')
      return {};
    ++P;
    SkipSpace();
    size_t ValueStart = P;
    int Depth = 0;
    while (P < Doc.size()) {
      char C = Doc[P];
      if (C == '"') {
        SkipString();
        continue;
      }
      if ((C == ',' || C == '}' || C == ']') && Depth == 0)
        break;
      if (C == '{' || C == '[')
        ++Depth;
      else if (C == '}' || C == ']')
        --Depth;
      ++P;
    }
    size_t ValueEnd = P;
    while (ValueEnd > ValueStart &&
           std::isspace(static_cast<unsigned char>(Doc[ValueEnd - 1])))
      --ValueEnd;
    Members.emplace_back(Key, Doc.substr(ValueStart, ValueEnd - ValueStart));
    if (P >= Doc.size() || Doc[P] != ',')
      break;
    ++P;
  }
  return Members;
}

/// Number field \p Field of the top-level section \p Key in the JSON
/// document at \p Path, as a previous run recorded it; 0 when the file,
/// the section or the field does not exist.
inline double recordedNumber(const char *Path, const char *Key,
                             const char *Field) {
  for (const auto &[K, Value] : splitJsonObject(readFileText(Path))) {
    if (K != Key)
      continue;
    std::string Needle = std::string("\"") + Field + "\":";
    size_t At = Value.find(Needle);
    if (At == std::string::npos)
      return 0.0;
    return std::strtod(Value.c_str() + At + Needle.size(), nullptr);
  }
  return 0.0;
}

/// Replaces the top-level members \p Updates of the shared benchmark JSON
/// document at \p Path, appending those it does not have yet; every other
/// member is kept as it was, in place, so benches never overwrite each
/// other's sections.  A fresh document is opened with a
/// "hardware_threads" member so the blob is self-describing no matter
/// which benchmark binary runs first.  Returns false (with a diagnostic
/// naming \p Tool) when the file is unwritable.
inline bool mergeJsonMembers(const char *Path, const char *Tool,
                             const JsonMembers &Updates) {
  JsonMembers Members = splitJsonObject(readFileText(Path));
  if (Members.empty())
    Members.emplace_back("hardware_threads",
                         std::to_string(hardwareThreads()));
  for (const auto &Update : Updates) {
    auto It =
        std::find_if(Members.begin(), Members.end(),
                     [&](const auto &M) { return M.first == Update.first; });
    if (It != Members.end())
      It->second = Update.second;
    else
      Members.push_back(Update);
  }
  std::FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "%s: cannot write %s\n", Tool, Path);
    return false;
  }
  std::fputs("{", Out);
  for (size_t K = 0; K != Members.size(); ++K)
    std::fprintf(Out, "%s\n  \"%s\": %s", K ? "," : "",
                 Members[K].first.c_str(), Members[K].second.c_str());
  std::fputs("\n}\n", Out);
  std::fclose(Out);
  return true;
}

/// Merges one top-level \p Key section (a complete JSON value) into the
/// shared benchmark JSON document at \p Path; see mergeJsonMembers.
inline bool mergeJsonSection(const char *Path, const char *Tool,
                             const char *Key, const std::string &Section) {
  return mergeJsonMembers(Path, Tool, {{Key, Section}});
}

} // namespace bench
} // namespace gis

#endif // GIS_BENCH_BENCHCOMMON_H
