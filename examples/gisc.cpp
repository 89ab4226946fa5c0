//===- examples/gisc.cpp - Command-line driver ------------------------------===//
//
// gisc: compile, schedule, inspect and run programs from the command line.
//
//   usage: gisc [options] <input-file>...
//
//   The input is mini-C by default, or GIS assembly with --asm (the syntax
//   of the paper's Figure 2, as printed by --dump-ir).
//
//   batch compilation (engine/CompileEngine.h):
//     --jobs N                   schedule functions on N worker threads
//                                (0: all hardware threads); implies the
//                                engine path
//     --batch FILE               read additional input paths from FILE
//                                (one per line, '#' comments)
//     --no-cache                 disable the content-addressed schedule
//                                cache
//     Passing several input files (or --jobs/--batch) selects the engine
//     path: all files are front-ended, every function is scheduled on the
//     worker pool, and outputs/stats are emitted in input order.  The
//     engine path supports the scheduling/inspection options below;
//     --run/--profile/--report need a single input without --jobs/--batch.
//
//   persistence and serving (src/persist/):
//     --cache-dir DIR            disk-backed schedule cache under DIR
//                                (shared across processes; survives
//                                restarts); implies the engine path.  An
//                                unusable DIR is a startup error with
//                                exit code 3; I/O failures after startup
//                                degrade to memory-only with a diagnostic
//     --cache-dir-max-mb N       bound the cache directory to N MiB;
//                                oldest entries are evicted at publish
//                                time (0, the default: unbounded)
//     --serve PATH               run as a compile daemon on Unix socket
//                                PATH (no input files needed); SIGTERM or
//                                SIGINT drains the queue and exits
//     --serve-workers N          daemon worker threads (default 2)
//     --serve-queue N            admission-queue bound; requests beyond
//                                it are shed with a retry hint (default 16)
//     --client PATH              send the input files to the daemon at
//                                PATH instead of compiling locally;
//                                scheduled modules print to stdout
//     --deadline-ms N            per-request deadline (default 30000)
//     --retries N                client retries on shed/connect failure,
//                                with exponential backoff + jitter
//                                (default 4)
//
//   mid-end optimizer (src/opt/):
//     -O0 | -O1 | -O2            optimization level before scheduling
//                                (default -O0: no passes; -O1: peephole +
//                                dead-code; -O2: all passes)
//     --opt-PASS --no-opt-PASS   force one pass on/off regardless of the
//                                level (PASS: peephole, strength, gvn, dce)
//     --list-passes              list the optimizer passes (pipeline
//                                order, per-level enablement) and exit
//   scheduling:
//     --level none|useful|spec   global scheduling level (default spec)
//     --spec-depth N             branches to gamble on (default 1)
//     --order paper|d|cp|source  priority-rule ordering (default paper)
//     --no-unroll --no-rotate --no-local --no-renaming --no-prerename
//     --all-levels               schedule every region nesting level
//     --superblocks              superblock formation: trace picking +
//                                tail duplication + superblock scheduling
//                                (profile-guided with --profile)
//     --trace-max-blocks N       trace length cap in blocks (default 8)
//     --trace-dup-budget N       per-function cap on instructions cloned
//                                by tail duplication (default 64)
//   machine:
//     --machine rs6k             (default)
//     --machine FXxFPxBR         e.g. --machine 4x1x2
//     --regs-gpr N               override the register-file sizes of the
//     --regs-fpr N               selected machine (defaults: 32 GPR,
//     --regs-cr N                32 FPR, 8 CR)
//     --list-machines            list built-in machines (unit counts and
//                                register files) and exit
//   register allocation (src/regalloc/):
//     --regalloc                 map onto the machine's finite register
//                                files after scheduling (spill code where
//                                pressure exceeds them) and reschedule
//                                each block
//     --no-postalloc-resched     skip the post-allocation local pass
//   observability (src/obs/):
//     --stats-json FILE          machine-readable statistics + the full
//                                obs counter registry as JSON
//     --trace-json FILE          Chrome-trace JSON of the run (stages,
//                                waves, regions, blocks, per-pick events);
//                                load in chrome://tracing or Perfetto
//     --explain                  per-pick decision log: candidate set,
//                                winning Section 5.2 rule, motion class
//   inspection (to stdout):
//     --dump-ir-before           IR as generated
//     --dump-ir                  IR after scheduling
//     --dump-cfg                 CFG in DOT          (pipe to `dot -Tsvg`)
//     --dump-cspdg               CSPDG + equivalences in DOT, per region
//     --dump-ddg                 data dependence graph in DOT, per region
//     --stats                    scheduling statistics
//     --report                   before/after per-function table
//   execution:
//     --run[=ENTRY]              interpret after scheduling (default: main)
//     --arg N                    argument for the entry (repeatable)
//     --cycles                   also report simulated RS/6000 cycles
//     --predictor none|taken|bimodal|oracle
//                                branch predictor for --cycles (default
//                                none: branches cost nothing, as in the
//                                paper's model); mispredicts charge a
//                                refetch penalty
//     --mispredict-penalty N     refetch penalty in cycles (default 3)
//     --profile                  run the entry once before scheduling and
//                                feed the block and branch-edge
//                                frequencies to the scheduler
//                                (profile-guided speculation and
//                                superblock formation)
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphViz.h"
#include "analysis/LoopInfo.h"
#include "analysis/RegPressure.h"
#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Timing.h"
#include "obs/StatsJson.h"
#include "obs/Trace.h"
#include "opt/Pass.h"
#include "persist/Client.h"
#include "persist/PersistIO.h"
#include "persist/Server.h"
#include "sched/Pipeline.h"
#include "sched/Profile.h"
#include "sched/Report.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

using namespace gis;

namespace {

struct CliOptions {
  std::vector<std::string> InputPaths;
  bool InputIsAsm = false;
  PipelineOptions Pipeline;
  MachineDescription Machine = MachineDescription::rs6k();
  /// --regs-gpr/--regs-fpr/--regs-cr (-1: keep the machine's default);
  /// applied after --machine so the order of the flags does not matter.
  std::array<int, 3> RegsOverride = {-1, -1, -1};
  bool ListMachines = false;
  bool ListPasses = false;
  bool DumpIRBefore = false;
  bool DumpIR = false;
  bool DumpCFG = false;
  bool DumpCSPDG = false;
  bool DumpDDG = false;
  bool Stats = false;
  bool Report = false;
  bool Run = false;
  std::string Entry = "main";
  std::vector<int64_t> Args;
  bool Cycles = false;
  bool Profile = false;
  /// --predictor / --mispredict-penalty (machine/BranchPredictor.h); the
  /// oracle kind prices the --cycles trace against a profile taken from
  /// that same run -- the best static prediction possible for it.
  BranchPredictorOptions Predictor;
  bool EngineRequested = false; ///< --jobs or --batch given
  unsigned Jobs = 1;
  bool UseCache = true;
  std::vector<std::string> BatchFiles;
  std::string TraceJsonPath;
  std::string StatsJsonPath;
  bool Explain = false;
  /// Persistence and serving (src/persist/).
  std::string CacheDir;
  uint64_t CacheDirMaxMb = 0; ///< 0: unbounded
  std::string ServePath;
  std::string ClientPath;
  unsigned ServeWorkers = 2;
  unsigned ServeQueue = 16;
  unsigned DeadlineMs = 30000;
  unsigned Retries = 4;
};

void usage() {
  std::cerr << "usage: gisc [options] <input-file>   (see header comment "
               "or README)\n";
}

bool parseMachine(const std::string &Spec, MachineDescription &MD) {
  if (Spec == "rs6k") {
    MD = MachineDescription::rs6k();
    return true;
  }
  unsigned FX = 0, FP = 0, BR = 0;
  if (std::sscanf(Spec.c_str(), "%ux%ux%u", &FX, &FP, &BR) == 3 && FX &&
      FP && BR) {
    MD = MachineDescription::superscalar(FX, FP, BR);
    return true;
  }
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int K = 1; K != Argc; ++K) {
    std::string A = Argv[K];
    auto Next = [&]() -> const char * {
      return K + 1 < Argc ? Argv[++K] : nullptr;
    };
    auto ParsePassToggle = [&](const std::string &Flag, bool On) {
      for (opt::PassId P : opt::passPipeline())
        if (Flag == opt::passInfo(P).Flag) {
          Cli.Pipeline.Opt.force(P, On);
          return true;
        }
      return false;
    };
    if (A == "--asm") {
      Cli.InputIsAsm = true;
    } else if (A == "-O0" || A == "-O1" || A == "-O2") {
      Cli.Pipeline.Opt.Level = static_cast<unsigned>(A[2] - '0');
    } else if (A.rfind("--opt-", 0) == 0) {
      if (!ParsePassToggle(A.substr(6), true))
        return false;
    } else if (A.rfind("--no-opt-", 0) == 0) {
      if (!ParsePassToggle(A.substr(9), false))
        return false;
    } else if (A == "--list-passes") {
      Cli.ListPasses = true;
    } else if (A == "--level") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "none") == 0)
        Cli.Pipeline.Level = SchedLevel::None;
      else if (std::strcmp(V, "useful") == 0)
        Cli.Pipeline.Level = SchedLevel::Useful;
      else if (std::strcmp(V, "spec") == 0)
        Cli.Pipeline.Level = SchedLevel::Speculative;
      else
        return false;
    } else if (A == "--spec-depth") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Pipeline.MaxSpecDepth = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--order") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "paper") == 0)
        Cli.Pipeline.Order = PriorityOrder::Paper;
      else if (std::strcmp(V, "d") == 0)
        Cli.Pipeline.Order = PriorityOrder::DelayFirst;
      else if (std::strcmp(V, "cp") == 0)
        Cli.Pipeline.Order = PriorityOrder::CriticalFirst;
      else if (std::strcmp(V, "source") == 0)
        Cli.Pipeline.Order = PriorityOrder::SourceOrder;
      else
        return false;
    } else if (A == "--no-unroll") {
      Cli.Pipeline.EnableUnroll = false;
    } else if (A == "--no-rotate") {
      Cli.Pipeline.EnableRotate = false;
    } else if (A == "--no-local") {
      Cli.Pipeline.RunLocalScheduler = false;
    } else if (A == "--no-renaming") {
      Cli.Pipeline.EnableRenaming = false;
    } else if (A == "--no-prerename") {
      Cli.Pipeline.EnablePreRenaming = false;
    } else if (A == "--all-levels") {
      Cli.Pipeline.OnlyTwoInnerLevels = false;
    } else if (A == "--superblocks") {
      Cli.Pipeline.EnableSuperblocks = true;
    } else if (A == "--trace-max-blocks") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Pipeline.TraceMaxBlocks = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--trace-dup-budget") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Pipeline.TraceDupBudget = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--predictor") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "none") == 0)
        Cli.Predictor.Kind = PredictorKind::None;
      else if (std::strcmp(V, "taken") == 0)
        Cli.Predictor.Kind = PredictorKind::AlwaysTaken;
      else if (std::strcmp(V, "bimodal") == 0)
        Cli.Predictor.Kind = PredictorKind::Bimodal2Bit;
      else if (std::strcmp(V, "oracle") == 0)
        Cli.Predictor.Kind = PredictorKind::ProfileOracle;
      else
        return false;
    } else if (A == "--mispredict-penalty") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Predictor.MispredictPenalty = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--machine") {
      const char *V = Next();
      if (!V || !parseMachine(V, Cli.Machine))
        return false;
    } else if (A == "--regs-gpr" || A == "--regs-fpr" || A == "--regs-cr") {
      const char *V = Next();
      if (!V)
        return false;
      int N = std::atoi(V);
      if (N < 0)
        return false;
      Cli.RegsOverride[A == "--regs-gpr" ? 0 : A == "--regs-fpr" ? 1 : 2] = N;
    } else if (A == "--list-machines") {
      Cli.ListMachines = true;
    } else if (A == "--regalloc") {
      Cli.Pipeline.AllocateRegisters = true;
    } else if (A == "--no-postalloc-resched") {
      Cli.Pipeline.RescheduleAfterAlloc = false;
    } else if (A == "--dump-ir-before") {
      Cli.DumpIRBefore = true;
    } else if (A == "--dump-ir") {
      Cli.DumpIR = true;
    } else if (A == "--dump-cfg") {
      Cli.DumpCFG = true;
    } else if (A == "--dump-cspdg") {
      Cli.DumpCSPDG = true;
    } else if (A == "--dump-ddg") {
      Cli.DumpDDG = true;
    } else if (A == "--stats") {
      Cli.Stats = true;
    } else if (A == "--report") {
      Cli.Report = true;
    } else if (A == "--run") {
      Cli.Run = true;
    } else if (A.rfind("--run=", 0) == 0) {
      Cli.Run = true;
      Cli.Entry = A.substr(6);
    } else if (A == "--arg") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Args.push_back(std::atoll(V));
    } else if (A == "--cycles") {
      Cli.Cycles = true;
    } else if (A == "--profile") {
      Cli.Profile = true;
    } else if (A == "--jobs") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Jobs = static_cast<unsigned>(std::atoi(V));
      Cli.EngineRequested = true;
    } else if (A == "--batch") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.BatchFiles.push_back(V);
      Cli.EngineRequested = true;
    } else if (A == "--no-cache") {
      Cli.UseCache = false;
    } else if (A == "--cache-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.CacheDir = V;
      Cli.EngineRequested = true; // the disk tier lives in the engine
    } else if (A == "--cache-dir-max-mb") {
      const char *V = Next();
      if (!V)
        return false;
      long long N = std::atoll(V);
      if (N < 0)
        return false;
      Cli.CacheDirMaxMb = static_cast<uint64_t>(N);
    } else if (A == "--serve") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.ServePath = V;
    } else if (A == "--client") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.ClientPath = V;
    } else if (A == "--serve-workers") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.ServeWorkers = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--serve-queue") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.ServeQueue = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--deadline-ms") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.DeadlineMs = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--retries") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.Retries = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--trace-json") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.TraceJsonPath = V;
    } else if (A == "--stats-json") {
      const char *V = Next();
      if (!V)
        return false;
      Cli.StatsJsonPath = V;
    } else if (A == "--explain") {
      Cli.Explain = true;
      Cli.Pipeline.CollectDecisions = true;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "gisc: unknown option " << A << "\n";
      return false;
    } else {
      Cli.InputPaths.push_back(A);
    }
  }
  for (unsigned C = 0; C != 3; ++C)
    if (Cli.RegsOverride[C] >= 0)
      Cli.Machine.setNumRegs(static_cast<RegClass>(C),
                             static_cast<unsigned>(Cli.RegsOverride[C]));
  return Cli.ListMachines || Cli.ListPasses || !Cli.ServePath.empty() ||
         !Cli.InputPaths.empty() || !Cli.BatchFiles.empty();
}

/// Appends the paths listed in manifest \p Path (one per line; blank lines
/// and '#' comments skipped) to \p Out.
bool readBatchManifest(const std::string &Path,
                       std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "gisc: cannot open batch manifest " << Path << "\n";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Begin = Line.find_first_not_of(" \t\r");
    if (Begin == std::string::npos || Line[Begin] == '#')
      continue;
    size_t End = Line.find_last_not_of(" \t\r");
    Out.push_back(Line.substr(Begin, End - Begin + 1));
  }
  return true;
}

/// Loads one input file as mini-C or GIS assembly.
std::unique_ptr<Module> loadInput(const std::string &Path, bool IsAsm) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "gisc: cannot open " << Path << "\n";
    return nullptr;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Source = SS.str();

  if (IsAsm) {
    ParseResult R = parseModule(Source);
    if (!R.ok()) {
      std::cerr << Path << ":" << R.Line << ": error: " << R.Error << "\n";
      return nullptr;
    }
    std::vector<std::string> Problems = verifyModule(*R.M);
    for (const std::string &P : Problems)
      std::cerr << Path << ": verify: " << P << "\n";
    if (!Problems.empty())
      return nullptr;
    return std::move(R.M);
  }
  CompileResult R = compileMiniC(Source);
  if (!R.ok()) {
    std::cerr << Path << ":" << R.Line << ": error: " << R.Error << "\n";
    return nullptr;
  }
  return std::move(R.M);
}

/// Dumps the per-region DOT graphs of every function.
void dumpRegions(const Module &M, const MachineDescription &MD, bool CSPDG,
                 bool DDG) {
  for (const auto &F : M.functions()) {
    LoopInfo LI = LoopInfo::compute(*F);
    if (!LI.isReducible()) {
      std::cerr << "gisc: " << F->name()
                << ": irreducible control flow, no region dumps\n";
      continue;
    }
    std::vector<int> Regions;
    for (unsigned L = 0; L != LI.numLoops(); ++L)
      Regions.push_back(static_cast<int>(L));
    Regions.push_back(-1);
    for (int RId : Regions) {
      SchedRegion R = SchedRegion::build(*F, LI, RId);
      PDG P = PDG::build(*F, R, MD);
      std::cout << "// function " << F->name() << ", region "
                << (RId < 0 ? std::string("top") : std::to_string(RId))
                << "\n";
      if (CSPDG)
        std::cout << cspdgToDot(*F, P);
      if (DDG)
        std::cout << ddgToDot(*F, P);
    }
  }
}

/// Finishes a --trace-json run: stop the tracer and write the file.
/// Returns false (and reports) when the file cannot be written.
bool exportTraceJson(const CliOptions &Cli) {
  if (Cli.TraceJsonPath.empty())
    return true;
  obs::Tracer &Tr = obs::Tracer::instance();
  Tr.disable();
  std::ofstream Out(Cli.TraceJsonPath);
  if (!Out) {
    std::cerr << "gisc: cannot write trace to " << Cli.TraceJsonPath
              << "\n";
    return false;
  }
  Tr.exportChromeJson(Out);
  return true;
}

/// The obs counter registry, one stable key per line (under --stats).
void printCounters(const obs::CounterSet &C) {
  std::cout << "  counters:\n";
  for (unsigned K = 0; K != obs::NumCounters; ++K) {
    auto Id = static_cast<obs::CounterId>(K);
    std::cout << "    " << obs::counterKey(Id) << " = " << C.get(Id)
              << "\n";
  }
}

/// One line of `--list-machines`: name, unit types with counts, and the
/// register files the allocator targets.
void printMachineLine(const MachineDescription &MD) {
  std::cout << "  " << MD.name() << ": units";
  for (unsigned T = 0; T != MD.numUnitTypes(); ++T)
    std::cout << (T ? ", " : " ") << MD.unitType(T).Count << "x"
              << MD.unitType(T).Name;
  std::cout << "; registers " << MD.numRegs(RegClass::GPR) << " GPR, "
            << MD.numRegs(RegClass::FPR) << " FPR, "
            << MD.numRegs(RegClass::CR) << " CR\n";
}

int listMachines() {
  std::cout << "built-in machines (--machine):\n";
  printMachineLine(MachineDescription::rs6k());
  printMachineLine(MachineDescription::superscalar(2, 1, 1));
  printMachineLine(MachineDescription::superscalar(4, 2, 2));
  std::cout << "  (any FXxFPxBR triple is accepted, e.g. --machine 6x2x2;\n"
               "   --regs-gpr/--regs-fpr/--regs-cr override the register "
               "files)\n";
  return 0;
}

/// One line of `--list-passes` per pass, in pipeline order (the order the
/// pass manager runs them), mirroring --list-machines.
int listPasses() {
  std::cout << "optimizer passes (pipeline order; -O0 runs none):\n";
  for (opt::PassId P : opt::passPipeline()) {
    const opt::PassInfo &Info = opt::passInfo(P);
    std::cout << "  " << Info.Name << ": " << Info.Description
              << "\n    enabled at -O" << Info.MinLevel
              << " and above; force with --opt-" << Info.Flag
              << " / --no-opt-" << Info.Flag << "\n";
  }
  std::cout << "  (every pass runs under the same checkpoint/verify/"
               "rollback transaction\n   as the scheduler's transforms; "
               "see --stats opt lines)\n";
  return 0;
}

/// The `--stats` optimizer lines shared by the single-file and engine
/// paths; silent when no pass was enabled.
void printOptStats(const PipelineStats &Stats, const PipelineOptions &Opts) {
  if (!Opts.Opt.anyEnabled())
    return;
  std::cout << "  optimizer: " << Stats.Opt.PassesRun
            << " pass run(s); peephole " << Stats.Opt.PeepholeRewrites
            << ", strength " << Stats.Opt.StrengthReduced << ", gvn "
            << Stats.Opt.ValuesNumbered << ", dce " << Stats.Opt.DeadRemoved
            << "\n";
}

/// The `--stats` lines shared by the single-file and engine paths:
/// scheduled-code pressure peaks and, with --regalloc, allocation totals.
void printPressureAndRegAlloc(const PipelineStats &Stats, bool Allocated) {
  std::cout << "  peak pressure GPR/FPR/CR: " << Stats.PressurePeak[0] << "/"
            << Stats.PressurePeak[1] << "/" << Stats.PressurePeak[2] << "\n";
  if (!Allocated)
    return;
  std::cout << "  regalloc: " << Stats.RegAlloc.IntervalsBuilt
            << " intervals, " << Stats.RegAlloc.IntervalsSpilled
            << " spilled (" << Stats.RegAlloc.SpillSlots << " slots, "
            << Stats.RegAlloc.SpillStores << " stores, "
            << Stats.RegAlloc.SpillReloads << " reloads), "
            << Stats.RegAllocFailures << " failures\n";
}

} // namespace

/// The engine path: several inputs and/or a worker pool, deterministic
/// input-order output.  Supports the inspection options; execution and
/// reporting options need the single-file path.
int runEngineMode(const CliOptions &Cli,
                  const std::vector<std::string> &Paths) {
  if (Cli.Run || Cli.Profile || Cli.Report) {
    std::cerr << "gisc: --run/--profile/--report need a single input "
                 "without --jobs/--batch\n";
    return 2;
  }

  std::vector<std::unique_ptr<Module>> Modules;
  for (const std::string &Path : Paths) {
    std::unique_ptr<Module> M = loadInput(Path, Cli.InputIsAsm);
    if (!M)
      return 1;
    if (Cli.DumpIRBefore) {
      std::cout << "// file: " << Path << " (before scheduling)\n";
      printModule(*M, std::cout);
    }
    Modules.push_back(std::move(M));
  }

  EngineOptions EOpts;
  EOpts.Jobs = Cli.Jobs;
  EOpts.UseCache = Cli.UseCache;
  EOpts.CacheDir = Cli.CacheDir; // validated at startup (exit code 3)
  EOpts.CacheDirMaxBytes = Cli.CacheDirMaxMb * 1024 * 1024;
  CompileEngine Engine(Cli.Machine, Cli.Pipeline, EOpts);

  std::vector<BatchItem> Batch;
  for (size_t K = 0; K != Modules.size(); ++K)
    Batch.push_back(BatchItem{Modules[K].get(), Paths[K]});
  if (!Cli.TraceJsonPath.empty())
    obs::Tracer::instance().enable();
  EngineReport Report = Engine.compileBatch(Batch);
  if (!exportTraceJson(Cli))
    return 1;

  for (size_t K = 0; K != Modules.size(); ++K) {
    const Module &M = *Modules[K];
    if (Cli.DumpIR) {
      std::cout << "// file: " << Paths[K] << "\n";
      printModule(M, std::cout);
    }
    if (Cli.DumpCFG)
      for (const auto &F : M.functions())
        std::cout << cfgToDot(*F);
    if (Cli.DumpCSPDG || Cli.DumpDDG)
      dumpRegions(M, Cli.Machine, Cli.DumpCSPDG, Cli.DumpDDG);
  }

  if (Cli.Explain)
    obs::renderDecisions(Report.Aggregate.Decisions, std::cout);

  if (Cli.Stats) {
    std::cout << Report.summary();
    for (const FunctionCompileResult &R : Report.PerFunction)
      std::cout << "  " << R.Item << ":" << R.Function
                << (R.CacheHit ? "  [cache hit]" : "") << "  "
                << static_cast<long>(R.CompileSeconds * 1e6) << "us\n";
    for (const Diagnostic &D : Report.Aggregate.Diags)
      std::cout << "  diagnostic: " << D.str() << "\n";
    printOptStats(Report.Aggregate, Cli.Pipeline);
    printPressureAndRegAlloc(Report.Aggregate,
                             Cli.Pipeline.AllocateRegisters);
    printCounters(Report.Aggregate.Counters);
  }

  if (!Cli.StatsJsonPath.empty()) {
    std::ofstream Out(Cli.StatsJsonPath);
    if (!Out) {
      std::cerr << "gisc: cannot write stats to " << Cli.StatsJsonPath
                << "\n";
      return 1;
    }
    obs::writeEngineReportJson(Out, Report);
  }
  return 0;
}

namespace {

/// SIGTERM/SIGINT latch for --serve; the main loop polls it and drains.
volatile std::sig_atomic_t GServeSignal = 0;
void onServeSignal(int) { GServeSignal = 1; }

/// The compile daemon (persist/Server.h).  Runs until SIGTERM/SIGINT,
/// then drains the admission queue and exits.
int runServeMode(const CliOptions &Cli) {
  persist::ServerOptions SO;
  SO.SocketPath = Cli.ServePath;
  SO.Workers = Cli.ServeWorkers;
  SO.QueueDepth = Cli.ServeQueue;
  SO.DefaultDeadlineMs = Cli.DeadlineMs;
  SO.CacheDir = Cli.CacheDir;
  SO.CacheDirMaxBytes = Cli.CacheDirMaxMb * 1024 * 1024;
  persist::CompileServer Server(Cli.Machine, Cli.Pipeline, SO);
  if (Status S = Server.start(); !S.isOk()) {
    std::cerr << "gisc: --serve: " << S.str() << "\n";
    return 1;
  }
  std::signal(SIGTERM, onServeSignal);
  std::signal(SIGINT, onServeSignal);
  std::cerr << "gisc: serving on " << Cli.ServePath << " ("
            << Cli.ServeWorkers << " worker(s), queue bound "
            << Cli.ServeQueue << ")\n";
  while (!GServeSignal)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cerr << "gisc: draining...\n";
  Server.drainAndJoin();
  persist::ServerStats S = Server.stats();
  std::cerr << "gisc: served " << S.Completed << " request(s), shed "
            << S.Shed << ", timed out " << S.TimedOut << ", errors "
            << S.Errors << "\n";
  return 0;
}

/// --client: ship each input to the daemon; scheduled modules go to
/// stdout in input order, exactly as --dump-ir would print them.
int runClientMode(const CliOptions &Cli,
                  const std::vector<std::string> &Paths) {
  persist::ClientOptions CO;
  CO.SocketPath = Cli.ClientPath;
  CO.Retries = Cli.Retries;
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "gisc: cannot open " << Path << "\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();

    persist::CompileRequest Req;
    Req.IsAsm = Cli.InputIsAsm;
    Req.DeadlineMs = Cli.DeadlineMs;
    Req.Name = Path;
    for (char &C : Req.Name) // the wire header is space-delimited
      if (C == ' ' || C == '\t')
        C = '_';
    Req.Source = SS.str();

    persist::CompileResponse R = persist::compileOverSocket(CO, Req);
    switch (R.Kind) {
    case persist::ResponseKind::Ok:
      std::cout << "// file: " << Path << "\n" << R.Text;
      if (Cli.Stats)
        std::cerr << "gisc: " << Path << ": mem hits " << R.MemHits
                  << ", disk hits " << R.DiskHits << ", misses "
                  << R.Misses << " (" << R.Attempts << " attempt(s))\n";
      break;
    case persist::ResponseKind::Shed:
      std::cerr << "gisc: " << Path << ": daemon overloaded after "
                << R.Attempts << " attempt(s)\n";
      return 1;
    case persist::ResponseKind::Timeout:
      std::cerr << "gisc: " << Path << ": " << R.Text << "\n";
      return 1;
    case persist::ResponseKind::Error:
      std::cerr << "gisc: " << Path << ": daemon error: " << R.Text
                << "\n";
      return 1;
    case persist::ResponseKind::ConnectFailed:
      std::cerr << "gisc: cannot reach daemon at " << Cli.ClientPath
                << " after " << (Cli.Retries + 1) << " attempt(s)\n";
      return 1;
    case persist::ResponseKind::ProtocolError:
      std::cerr << "gisc: " << Path << ": protocol error: " << R.Text
                << "\n";
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Cli;
  if (!parseArgs(argc, argv, Cli)) {
    usage();
    return 2;
  }
  if (Cli.ListMachines)
    return listMachines();
  if (Cli.ListPasses)
    return listPasses();

  // Validate --cache-dir up front with a distinct exit code: a typo'd or
  // unwritable directory is a configuration error the caller should see
  // immediately, not a silently memory-only run.
  if (!Cli.CacheDir.empty()) {
    Status S = persist::ensureDir(Cli.CacheDir);
    if (S.isOk())
      S = persist::probeWritable(Cli.CacheDir);
    if (!S.isOk()) {
      std::cerr << "gisc: cache directory unusable: " << S.str() << "\n";
      return 3;
    }
  }

  if (!Cli.ServePath.empty())
    return runServeMode(Cli);

  std::vector<std::string> Paths = Cli.InputPaths;
  for (const std::string &Manifest : Cli.BatchFiles)
    if (!readBatchManifest(Manifest, Paths))
      return 1;
  if (Paths.empty()) {
    std::cerr << "gisc: no input files\n";
    return 2;
  }

  if (!Cli.ClientPath.empty())
    return runClientMode(Cli, Paths);

  if (Cli.EngineRequested || Paths.size() > 1)
    return runEngineMode(Cli, Paths);

  std::unique_ptr<Module> M = loadInput(Paths.front(), Cli.InputIsAsm);
  if (!M)
    return 1;

  if (Cli.DumpIRBefore)
    printModule(*M, std::cout);

  // Profile-guided mode: run the entry once on the unscheduled code and
  // hand the block frequencies to the scheduler.
  ProfileData Profile;
  if (Cli.Profile) {
    Function *Entry = M->findFunction(Cli.Entry);
    if (!Entry || Entry->params().size() != Cli.Args.size()) {
      std::cerr << "gisc: --profile needs a runnable entry (--run/--arg)\n";
      return 1;
    }
    Interpreter I(*M);
    for (size_t K = 0; K != Cli.Args.size(); ++K)
      I.setReg(Entry->params()[K], Cli.Args[K]);
    ExecResult R = I.run(*Entry);
    if (R.Trapped) {
      std::cerr << "gisc: profiling run trapped: " << R.TrapReason << "\n";
      return 1;
    }
    Profile.record(*Entry, I.blockCounts());
    Profile.recordEdges(*Entry, I.edgeCounts());
    Cli.Pipeline.Profile = &Profile;
  }

  ScheduleReport Rep;
  PipelineStats Stats;
  if (!Cli.TraceJsonPath.empty())
    obs::Tracer::instance().enable();
  if (Cli.Report) {
    Rep = scheduleWithReport(*M, Cli.Machine, Cli.Pipeline);
    Stats = Rep.Stats;
    printReport(Rep, std::cout);
  } else {
    Stats = scheduleModule(*M, Cli.Machine, Cli.Pipeline);
  }
  if (!exportTraceJson(Cli))
    return 1;
  if (Cli.Explain)
    obs::renderDecisions(Stats.Decisions, std::cout);

  if (Cli.DumpIR)
    printModule(*M, std::cout);
  if (Cli.DumpCFG)
    for (const auto &F : M->functions())
      std::cout << cfgToDot(*F);
  if (Cli.DumpCSPDG || Cli.DumpDDG)
    dumpRegions(*M, Cli.Machine, Cli.DumpCSPDG, Cli.DumpDDG);

  if (Cli.Stats) {
    std::cout << "scheduling statistics:\n"
              << "  regions scheduled:    " << Stats.Global.RegionsScheduled
              << "\n  useful motions:       " << Stats.Global.UsefulMotions
              << "\n  speculative motions:  "
              << Stats.Global.SpeculativeMotions
              << "\n  vetoed speculations:  "
              << Stats.Global.VetoedSpeculations
              << "\n  register renames:     " << Stats.Global.Renames
              << "\n  pre-renamed defs:     " << Stats.PreRenamedDefs
              << "\n  loops unrolled:       " << Stats.LoopsUnrolled
              << "\n  loops rotated:        " << Stats.LoopsRotated
              << "\n  regions over size cap: "
              << Stats.RegionsSkippedBySize
              << "\n  blocks reordered (local): "
              << Stats.Local.BlocksReordered
              << "\n  transactions run:     " << Stats.TransactionsRun
              << "\n  rollbacks (region/transform): "
              << Stats.RegionsRolledBack << "/" << Stats.TransformsRolledBack
              << "\n  faults injected:      " << Stats.FaultsInjected
              << "\n  region waves:         " << Stats.RegionWaves << "\n";
    if (Cli.Pipeline.EnableSuperblocks)
      std::cout << "  traces formed/truncated: " << Stats.TracesFormed << "/"
                << Stats.TracesTruncated
                << "\n  trace blocks claimed: " << Stats.TraceBlocks
                << "\n  tail-dup instrs/blocks: " << Stats.TailDupInstrs
                << "/" << Stats.TailDupBlocks
                << "\n  superblocks scheduled: "
                << Stats.SuperblocksScheduled << "\n";
    for (const RegionTime &RT : Stats.RegionTimes)
      std::cout << "    wave " << RT.Wave << " region "
                << (RT.LoopIdx < 0 ? std::string("top")
                                   : std::to_string(RT.LoopIdx))
                << ": " << static_cast<long>(RT.Seconds * 1e6) << "us\n";
    for (const Diagnostic &D : Stats.Diags)
      std::cout << "  diagnostic: " << D.str() << "\n";
    printOptStats(Stats, Cli.Pipeline);
    printPressureAndRegAlloc(Stats, Cli.Pipeline.AllocateRegisters);
    printCounters(Stats.Counters);
    for (const auto &F : M->functions()) {
      RegPressure P = computeRegPressure(*F);
      std::cout << "  " << F->name() << ": peak live GPR/FPR/CR = "
                << P.maxLive(RegClass::GPR) << "/"
                << P.maxLive(RegClass::FPR) << "/"
                << P.maxLive(RegClass::CR) << "\n";
    }
  }

  if (!Cli.StatsJsonPath.empty()) {
    std::ofstream Out(Cli.StatsJsonPath);
    if (!Out) {
      std::cerr << "gisc: cannot write stats to " << Cli.StatsJsonPath
                << "\n";
      return 1;
    }
    obs::writePipelineStatsJson(Out, Stats,
                                Cli.Profile ? &Profile : nullptr,
                                Cli.Profile ? M->findFunction(Cli.Entry)
                                            : nullptr);
  }

  if (Cli.Run) {
    Function *Entry = M->findFunction(Cli.Entry);
    if (!Entry) {
      std::cerr << "gisc: no function '" << Cli.Entry << "'\n";
      return 1;
    }
    if (Entry->params().size() != Cli.Args.size()) {
      std::cerr << "gisc: '" << Cli.Entry << "' expects "
                << Entry->params().size() << " arguments, got "
                << Cli.Args.size() << " (--arg)\n";
      return 1;
    }
    Interpreter I(*M);
    I.enableTrace(Cli.Cycles);
    for (size_t K = 0; K != Cli.Args.size(); ++K)
      I.setReg(Entry->params()[K], Cli.Args[K]);
    ExecResult R = I.run(*Entry);
    if (R.Trapped) {
      std::cerr << "gisc: trap: " << R.TrapReason << "\n";
      return 1;
    }
    for (int64_t V : R.Printed)
      std::cout << V << "\n";
    if (R.HasReturnValue)
      std::cout << "return value: " << R.ReturnValue << "\n";
    std::cout << "instructions executed: " << R.InstrCount << "\n";
    if (Cli.Cycles) {
      TimingSimulator Sim(Cli.Machine);
      BranchPredictorOptions POpts = Cli.Predictor;
      // The oracle predictor prices this very run: record its edge
      // profile (block ids match -- same scheduled function) and predict
      // each branch's majority direction.
      ProfileData RunProfile;
      if (POpts.Kind == PredictorKind::ProfileOracle) {
        RunProfile.recordEdges(*Entry, I.edgeCounts());
        POpts.Profile = &RunProfile;
      }
      Sim.setPredictor(POpts);
      TimingResult T = Sim.simulate(I.trace());
      std::cout << "simulated cycles: " << T.Cycles
                << "  (ipc " << T.ipc() << ")\n";
      if (POpts.Kind != PredictorKind::None)
        std::cout << "branches: " << T.Branches
                  << "  mispredicts: " << T.Mispredicts
                  << "  branch stall cycles: " << T.BranchStallCycles
                  << "\n";
    }
  }
  return 0;
}
