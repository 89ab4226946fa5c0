//===- gisbench/src/Compile.cpp - cold_batch and paper_kernels ------------===//
//
// Both workloads are closed loops with one caller: a fixed set of distinct
// programs is compiled round after round, one module at a time, until the
// run has lasted --seconds and every program was compiled twice.
//
//   cold_batch     a seeded batch of generateRandomMiniC modules through
//                  CompileEngine (Jobs=1, cache off) with gisc's defaults
//                  (speculative, -O0): every function misses, so the front
//                  end, the analyses and the scheduler do the work.
//   paper_kernels  the four SPEC-shaped programs plus E14's CORR through
//                  scheduleModule at -O2 with profile-guided superblocks and
//                  register allocation at RS/6000 sizes: the only workload
//                  where opt, trace and regalloc work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/Hashing.h"
#include "support/RNG.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <sstream>

using namespace gis;

namespace gisbench {

namespace {

/// One closed-loop compile workload.
struct CompileSet {
  std::vector<Program> Programs;
  PipelineOptions Opts;
  /// Compiles one front-end module through the workload's public entry
  /// point (the untraced run).
  std::function<PipelineStats(Module &)> Compile;
  /// Modules the traced run compiles (cycling through Programs, each one
  /// twice: traced and untraced), and how often the probes repeat each
  /// function.
  unsigned TraceUnits = 0;
  unsigned ProbeRepeats = 1;
};

/// Compiles whose pipeline rolled a transaction back.  The verifier
/// caught a bad schedule and the transaction restored a legal one, so the
/// output is still correct: such compiles are counted and reported, not
/// failed.  (At this writing about one random module in a thousand hits
/// one: a speculative motion that kills a register live on exit.)
struct RollbackLog {
  uint64_t Units = 0;
  std::string First;

  void note(const PipelineStats &S, const std::string &Name) {
    if (!S.RegionsRolledBack && !S.TransformsRolledBack &&
        !S.VerifierFailures && !S.EngineFailures && !S.OracleMismatches)
      return;
    ++Units;
    if (First.empty())
      First = Name + ": " +
              (S.Diags.empty() ? "rollback" : S.Diags.front().str());
  }
  void report(Outcome &Out) const {
    Out.Deterministic["rolled_back_units"] = static_cast<double>(Units);
    if (Units)
      Out.Notes["rollbacks"] =
          std::to_string(Units) + " compile(s) rolled back; first " + First;
  }
};

uint64_t hashInputs(const std::vector<Program> &Ps) {
  HashBuilder H;
  for (const Program &P : Ps) {
    H.addString(P.Name);
    H.addString(P.Source);
    H.addString(P.Entry);
    for (int64_t A : P.Args)
      H.addU64(static_cast<uint64_t>(A));
  }
  return H.hash();
}

/// Per-unit bookkeeping shared by both modes.
struct Units {
  std::vector<uint32_t> Program;
  std::vector<bool> Bad;

  void add(uint32_t K, bool IsBad) {
    Program.push_back(K);
    Bad.push_back(IsBad);
  }
  /// Counts failed units: those that failed themselves and every unit of
  /// a program whose output check failed.
  uint64_t failed(const std::vector<bool> &ProgramOk) const {
    uint64_t N = 0;
    for (size_t U = 0; U != Program.size(); ++U)
      N += Bad[U] || !ProgramOk[Program[U]];
    return N;
  }
};

/// The scheduled output of one program, kept as printed text: the window
/// keeps one per distinct program for the check, and a thousand Module
/// objects would dwarf the compiler's own peak memory.
std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// Parses kept outputs back (an empty text is a failed compile).
std::vector<std::unique_ptr<Module>>
parseOutputs(const std::vector<std::string> &Texts) {
  std::vector<std::unique_ptr<Module>> Ms;
  for (const std::string &T : Texts)
    Ms.push_back(T.empty() ? nullptr : parseModule(T).M);
  return Ms;
}

/// The output check of one run: corrupts on request, checks and prices
/// every distinct program, settles attempted/failed.
CheckTotals finishCheck(const RunOptions &O, const CompileSet &W,
                        const std::vector<std::string> &Texts,
                        const Units &U, const MachineDescription &MD,
                        Tracer *T, Outcome &Out) {
  std::vector<std::unique_ptr<Module>> Outputs = parseOutputs(Texts);
  if (O.Corrupt && Outputs[0])
    corruptProgram(*Outputs[0], W.Programs[0].Entry);
  std::vector<const Module *> Ptrs;
  for (const auto &M : Outputs)
    Ptrs.push_back(M.get());
  std::vector<Program> Checked(W.Programs.begin(),
                               W.Programs.begin() + Outputs.size());
  CheckTotals Tot = checkAll(Out, Checked, Ptrs,
                             std::vector<bool>(Outputs.size(), true), MD, T);
  Out.Attempted = U.Program.size();
  Out.Failed = U.failed(Tot.Ok);
  Out.OutputHash = Tot.OutputHash;
  addQualityMetrics(Out, Tot.Rows);
  return Tot;
}

/// Every program is compiled in at least this many rounds, so each has
/// compiles from different moments of the window to choose from.
constexpr unsigned MinRounds = 2;

/// The end-to-end run: the workload's own entry point, no tracing.
///
/// Every compile time is scaled by HostSpeed (the reference task runs
/// between compiles, at most every 0.1 s), and the timed metrics come from
/// each program's fastest quarter of scaled compiles (at least one, so
/// cold_batch keeps the best of its 2-3 rounds and paper_kernels its
/// quietest few hundred), which drops short bursts the reference misses:
/// funcs_per_s is the functions of the kept compiles over their summed
/// time, the latency percentiles are over the kept compiles.  Every compile
/// is still checked and counted.
void runUntraced(const RunOptions &O, const CompileSet &W,
                 const MachineDescription &MD, Outcome &Out) {
  struct Compile {
    uint32_t Program;
    double At; ///< start, seconds into the window
    double Ms;
  };
  const size_t N = W.Programs.size();
  std::vector<std::string> Outputs(N);
  std::vector<obs::CounterSet> FirstCounters(N);
  std::vector<size_t> FuncsOf(N, 0);
  std::vector<Compile> Compiles;
  Units U;
  Samples All;
  RollbackLog Rollbacks; // first round only, so the count is deterministic
  uint64_t Funcs = 0;
  double Keeping = 0; // printing kept outputs: not part of the workload

  resetPeakRss();
  Clock::time_point Start = Clock::now();
  HostSpeed Speed(Start);
  for (uint64_t I = 0;; ++I) {
    const size_t K = I % N;
    Speed.maybeSample();
    const double At = secondsSince(Start);
    Clock::time_point T0 = Clock::now();
    CompileResult R = compileMiniC(W.Programs[K].Source);
    PipelineStats S;
    if (R.ok())
      S = W.Compile(*R.M);
    const double Ms = 1e3 * secondsSince(T0);
    All.add(Ms);
    if (I < N)
      Rollbacks.note(S, W.Programs[K].Name);

    bool Bad = !R.ok();
    if (!R.ok())
      Out.fail(W.Programs[K].Name + ": front end: " + R.Error);
    else {
      Compiles.push_back({static_cast<uint32_t>(K), At, Ms});
      FuncsOf[K] = R.M->functions().size();
      Funcs += FuncsOf[K];
    }
    if (I < N) {
      FirstCounters[K] = S.Counters;
      Clock::time_point P0 = Clock::now();
      if (R.ok())
        Outputs[K] = printed(*R.M);
      Keeping += secondsSince(P0);
    } else if (!(S.Counters == FirstCounters[K])) {
      // Determinism: every round must repeat the first one exactly.
      Bad = true;
      Out.fail(W.Programs[K].Name + ": pipeline counters drifted");
    }
    U.add(static_cast<uint32_t>(K), Bad);
    if (I + 1 >= MinRounds * N && secondsSince(Start) >= O.Seconds)
      break;
  }
  Speed.sample();
  const double Wall = secondsSince(Start) - Keeping - Speed.overhead();
  const double Rss = peakRssMiB();

  std::vector<std::vector<double>> Times(N); // scaled ms, per program
  for (const Compile &C : Compiles)
    Times[C.Program].push_back(C.Ms * Speed.factorAt(C.At + C.Ms / 2000));
  Samples Kept;
  double KeptFuncs = 0, KeptMs = 0;
  for (size_t K = 0; K != N; ++K) {
    std::vector<double> &T = Times[K];
    std::sort(T.begin(), T.end());
    for (size_t J = 0; J != (T.size() + 3) / 4; ++J) {
      Kept.add(T[J]);
      KeptFuncs += FuncsOf[K];
      KeptMs += T[J];
    }
  }
  setMetric(Out.EndToEnd, "funcs_per_s", KeptMs ? 1e3 * KeptFuncs / KeptMs : 0,
            "funcs/s");
  setMetric(Out.EndToEnd, "latency_ms_p50", Kept.median(), "ms");
  setMetric(Out.EndToEnd, "latency_ms_p99", Kept.percentile(99), "ms");
  setMetric(Out.EndToEnd, "peak_rss_mb", Rss, "MiB");
  Out.Timings["latency_ms_kept"] = summarize(Kept, "ms");
  Out.Timings["latency_ms_raw"] = summarize(All, "ms");
  Out.Notes["window_s"] = std::to_string(Wall);
  Out.Notes["raw_funcs_per_s"] = std::to_string(Funcs / Wall);
  Out.Notes["reference_task_ms"] = std::to_string(1e3 * Speed.medianRef());
  Rollbacks.report(Out);

  finishCheck(O, W, Outputs, U, MD, nullptr, Out);
  addFailedRatio(Out);
}

/// The traced run: the same compiles through the layers' own entry points
/// (compileMiniC, then schedulePipeline per function -- what the engine
/// does with the cache off), once untraced and once with spans and
/// allocation counting, followed by the probes and the traced check.
void runTraced(const RunOptions &O, const CompileSet &W,
               const MachineDescription &MD, Outcome &Out) {
  const size_t N = W.Programs.size();
  const size_t Distinct = std::min<size_t>(N, W.TraceUnits);
  std::vector<std::string> Outputs(Distinct);
  PipelineStats RoundStats;
  uint64_t RoundFuncs = 0;
  Units U;
  RollbackLog Rollbacks; // the traced pass: fixed work, deterministic

  // One module: frontend, then the scheduler per function, in spans that
  // share the module's id.  Returns the scheduled module (null when the
  // front end failed).
  auto CompileUnit = [&](Tracer *T, uint64_t I, PipelineStats &Stats,
                         uint64_t &FrontendInstrs) {
    const size_t K = I % N;
    Scope Unit(T, "module", I);
    CompileResult R;
    {
      Scope S(T, "frontend", I);
      R = compileMiniC(W.Programs[K].Source);
    }
    if (!R.ok()) {
      Out.fail(W.Programs[K].Name + ": front end: " + R.Error);
      return std::unique_ptr<Module>();
    }
    FrontendInstrs += staticInstrs(*R.M);
    for (auto &F : R.M->functions()) {
      Scope S(T, "sched", I);
      Stats += schedulePipeline(*F, MD, W.Opts);
    }
    return std::move(R.M);
  };

  // Every unit is compiled twice, untraced and traced, in alternating
  // order, so both sides see the same host conditions and the difference
  // is the tracing overhead alone.
  Tracer T(0);
  uint64_t Funcs = 0, InstrsB = 0, InstrsUntraced = 0;
  double WallA = 0, WallB = 0;
  for (uint64_t I = 0; I != W.TraceUnits; ++I) {
    const size_t K = I % N;
    std::unique_ptr<Module> M;
    PipelineStats Stats;
    for (unsigned Side = 0; Side != 2; ++Side) {
      const bool Traced = (Side + I) % 2 == 1;
      PipelineStats S;
      CountAllocations.store(Traced);
      Clock::time_point T0 = Clock::now();
      std::unique_ptr<Module> Got =
          CompileUnit(Traced ? &T : nullptr, I, S,
                      Traced ? InstrsB : InstrsUntraced);
      (Traced ? WallB : WallA) += secondsSince(T0);
      CountAllocations.store(false);
      if (Traced) {
        M = std::move(Got);
        Stats = S;
      }
    }
    U.add(static_cast<uint32_t>(K), !M);
    if (!M)
      continue;
    Rollbacks.note(Stats, W.Programs[K].Name);
    Funcs += M->functions().size();
    if (I < Distinct) {
      RoundStats += Stats;
      RoundFuncs += M->functions().size();
      Outputs[K] = printed(*M);
    }
  }

  std::map<std::string, SpanTotals> Totals = aggregateSpans({&T});
  double SelfSum = 0;
  for (const auto &[Name, Tot] : Totals)
    SelfSum += Tot.SelfSeconds;
  Out.Identities["self_seconds_sum"] = SelfSum;
  Out.Identities["traced_wall_s"] = WallB;

  const SpanTotals &Fe = Totals["frontend"];
  auto PerFunc = [&](double X) { return Funcs ? X / Funcs : 0; };
  auto &L = Out.PerLayer;
  setMetric(L, "frontend.us_per_func", PerFunc(1e6 * Fe.SelfSeconds), "us");
  setMetric(L, "frontend.allocs_per_func",
            PerFunc(static_cast<double>(Fe.SelfAllocs)), "count");
  setMetric(L, "frontend.ir_instrs_per_func",
            PerFunc(static_cast<double>(InstrsB)), "instrs");
  Out.Deterministic["frontend.allocs_per_func"] =
      PerFunc(static_cast<double>(Fe.SelfAllocs));
  Out.Deterministic["frontend.ir_instrs_per_func"] =
      PerFunc(static_cast<double>(InstrsB));
  addSchedMetrics(Out, RoundStats, Totals["sched"], Funcs);
  // Same functions on both sides, so the funcs/s ratio is the time ratio.
  setMetric(L, "bench.trace_overhead", 1 - WallA / WallB, "ratio");
  Out.Notes["untraced_funcs_per_s"] = std::to_string(Funcs / WallA);
  Out.Notes["traced_funcs_per_s"] = std::to_string(Funcs / WallB);

  // Probes on copies of the same functions, outside the traced window.
  std::vector<std::unique_ptr<Module>> Fresh;
  std::vector<std::unique_ptr<Module>> Parsed = parseOutputs(Outputs);
  std::vector<const Function *> ProbeFuncs;
  std::vector<const Module *> Scheduled;
  for (size_t K = 0; K != Distinct; ++K) {
    if (!Parsed[K])
      continue;
    Fresh.push_back(compileMiniC(W.Programs[K].Source).M);
    Scheduled.push_back(Parsed[K].get());
  }
  for (unsigned Rep = 0; Rep != W.ProbeRepeats; ++Rep)
    for (const auto &M : Fresh)
      for (const auto &F : M->functions())
        ProbeFuncs.push_back(F.get());
  CountAllocations.store(true);
  probeLayers(Out, ProbeFuncs, Scheduled, MD, W.Opts, RoundStats, RoundFuncs,
              /*ProbePrint=*/true);
  CountAllocations.store(false);

  Rollbacks.report(Out);
  Tracer C(1);
  CheckTotals Tot = finishCheck(O, W, Outputs, U, MD, &C, Out);
  addCheckMetrics(Out, aggregateSpans({&C}), Tot);
  addFailedRatio(Out);
  if (!writeSpans(O.SpansPath, {&T, &C}))
    Out.fail("cannot write spans to " + O.SpansPath);
}

Outcome runCompileWorkload(const RunOptions &O, unsigned SetupReps,
                           const std::function<CompileSet()> &Make) {
  Outcome Out;
  const MachineDescription MD = MachineDescription::rs6k();
  CompileSet W;
  timeSetup(Out, SetupReps, [&] { W = Make(); });
  Out.InputHash = hashInputs(W.Programs);
  if (O.Trace)
    runTraced(O, W, MD, Out);
  else
    runUntraced(O, W, MD, Out);
  return Out;
}

/// E14's correlated-diamond workload (bench/bench_trace.cpp): the join
/// branch is determined by the path into it, which only superblock tail
/// duplication exposes to a bimodal predictor.
Program correlatedKernel() {
  Program C;
  C.Name = "CORR";
  C.Source = R"(
int data[512];
int corr_dispatch(int n) {
  int i = 0;
  int s = 0;
  while (i < n) {
    int v = data[i - (i / 512) * 512];
    if (v > 0) { s = s + v; } else { s = s - v; }
    if (v > 0) { s = s + 1; } else { s = s + 2; }
    i = i + 1;
  }
  print(s);
  return s;
}
)";
  C.Entry = "corr_dispatch";
  C.Args = {4000};
  C.Setup = [](Interpreter &I, const Module &M) {
    const GlobalArray &Data = M.globals().front();
    for (int K = 0; K != 512; ++K)
      I.storeWord(Data.Address + 4 * K, K % 5 < 3 ? 1 : -1);
  };
  return C;
}

} // namespace

Outcome runColdBatch(const RunOptions &O) {
  // 1024 distinct modules put ten distinct programs beyond the p99 of
  // module latency, so the tail does not hinge on one or two programs;
  // a round of them takes about 10 s on a 4-thread 2.x GHz Xeon.
  const unsigned Modules = O.Short ? 48 : 1024;
  std::unique_ptr<CompileEngine> Engine;
  return runCompileWorkload(O, /*SetupReps=*/5, [&] {
    CompileSet W;
    // Loop trip counts are capped at 4 (default 12) so every program runs
    // in well under a million steps and the output check stays cheap, and
    // one helper (default 2) keeps a module near 10 ms so every program
    // gets two or three rounds; statement, expression and nesting shapes
    // are the generator's defaults.
    RandomProgramOptions RO;
    RO.MaxLoopTrip = 4;
    RO.NumHelpers = 1;
    for (unsigned K = 0; K != Modules; ++K) {
      Program P;
      P.Name = "rand" + std::to_string(K);
      P.Source = generateRandomMiniC(mixSeed(O.Seed, 1, K), RO);
      W.Programs.push_back(std::move(P));
    }
    EngineOptions EO;
    EO.Jobs = 1;
    EO.UseCache = false;
    Engine = std::make_unique<CompileEngine>(MachineDescription::rs6k(),
                                             W.Opts, EO);
    W.Compile = [&Engine](Module &M) { return Engine->compile(M).Aggregate; };
    W.TraceUnits = O.Short ? 24 : 384;
    // Warm-up: code pages and allocator arenas, before any timing.
    for (unsigned K = 0; K != std::min(Modules, 16u); ++K) {
      auto M = compileMiniCOrDie(W.Programs[K].Source);
      W.Compile(*M);
    }
    return W;
  });
}

Outcome runPaperKernels(const RunOptions &O) {
  ProfileData Profile;
  const MachineDescription MD = MachineDescription::rs6k();
  return runCompileWorkload(O, /*SetupReps=*/5, [&] {
    CompileSet W;
    for (Workload &K : specLikeWorkloads()) {
      Program P;
      P.Name = K.Name;
      P.Source = K.Source;
      P.Entry = K.EntryFunction;
      P.Args = K.Args;
      P.Setup = K.Setup;
      W.Programs.push_back(std::move(P));
    }
    W.Programs.push_back(correlatedKernel());
    // The kernel set is fixed (the paper's program shapes); the seed only
    // picks the order in which a round compiles them.
    RNG R(mixSeed(O.Seed, 4, 0));
    for (size_t K = W.Programs.size(); K > 1; --K)
      std::swap(W.Programs[K - 1], W.Programs[R.nextBelow(K)]);

    // The profile: one interpretation of each unscheduled kernel.
    Profile = ProfileData();
    for (const Program &P : W.Programs) {
      auto M = compileMiniCOrDie(P.Source);
      Function *Entry = M->findFunction(P.Entry);
      Interpreter I(*M);
      if (P.Setup)
        P.Setup(I, *M);
      for (size_t A = 0; A != P.Args.size(); ++A)
        I.setReg(Entry->params()[A], P.Args[A]);
      I.run(*Entry, 400'000'000);
      Profile.record(*Entry, I.blockCounts());
      Profile.recordEdges(*Entry, I.edgeCounts());
    }
    W.Opts.Opt.Level = 2;
    W.Opts.EnableSuperblocks = true;
    W.Opts.AllocateRegisters = true; // rs6k(): 32 GPR, 32 FPR, 8 CR
    W.Opts.Profile = &Profile;
    W.Compile = [&MD, Opts = W.Opts](Module &M) {
      return scheduleModule(M, MD, Opts);
    };
    W.TraceUnits = static_cast<unsigned>(W.Programs.size()) *
                   (O.Short ? 4 : 200);
    W.ProbeRepeats = O.Short ? 2 : 40;
    for (const Program &P : W.Programs) {
      auto M = compileMiniCOrDie(P.Source);
      W.Compile(*M);
    }
    return W;
  });
}

} // namespace gisbench
