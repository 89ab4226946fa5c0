//===- gisbench/src/Bench.h - Shared pieces of the repo benchmark -*- C++ -*-===//
//
// The repository benchmark drives three workloads through the public entry
// points of the compile path and reports end-to-end metrics (untraced run)
// or per-layer metrics (traced run).  See gisbench/README.md for the
// workloads, the metrics and the result files.
//
//===----------------------------------------------------------------------===//

#ifndef GISBENCH_BENCH_H
#define GISBENCH_BENCH_H

#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "machine/MachineDescription.h"
#include "sched/Pipeline.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gisbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Small inputs, for the benchmark's own tests.
  bool Short = false;
  /// Drop one instruction from one scheduled program before the output
  /// check, which must then fail the run (the self-test's mutation).
  bool Corrupt = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string SpansPath = "spans.json";
};

/// Mixes a seed with a stream tag and an index into an independent seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Tag, uint64_t Index);

//===----------------------------------------------------------------------===
// Samples and results
//===----------------------------------------------------------------------===

/// A set of timing samples.
struct Samples {
  std::vector<double> V;

  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  /// Nearest-rank percentile, \p P in [0, 100]; 0 when empty.
  double percentile(double P) const;
  double median() const { return percentile(50); }
  double mean() const;
};

/// One printed metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Median / tail / count of one timing, kept in the result file.
struct TimingSummary {
  std::string Unit;
  double Median = 0;
  double P99 = 0;
  double Max = 0;
  size_t Count = 0;
};

TimingSummary summarize(const Samples &S, const std::string &Unit);

/// Per-program row of the output check.
struct ProgramRow {
  std::string Name;
  uint64_t CyclesNone = 0;
  uint64_t CyclesBimodal = 0;
  uint64_t RefInstrs = 0;  ///< dynamic, unscheduled reference run
  uint64_t CodeInstrs = 0; ///< static, scheduled output
  uint64_t RefCode = 0;    ///< static, front-end output
};

/// What one workload run hands back to main().
struct Outcome {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< first few failure descriptions
  uint64_t InputHash = 0;
  uint64_t OutputHash = 0;
  /// Values two runs with one seed must reproduce exactly.
  std::map<std::string, double> Deterministic;
  /// Raw values behind the per-layer identities (hits + misses = lookups,
  /// ...), checked by the run itself and by the self-test.
  std::map<std::string, double> Identities;
  std::map<std::string, TimingSummary> Timings;
  std::map<std::string, std::string> Notes;
  std::vector<ProgramRow> Programs;

  void fail(const std::string &Why) {
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

//===----------------------------------------------------------------------===
// Tracing: spans and allocation counts, recorded by the benchmark's own code
//===----------------------------------------------------------------------===

/// Allocation counting (CountingNew.cpp): the global operator new bumps the
/// calling thread's counters while CountAllocations is set.
extern std::atomic<bool> CountAllocations;
uint64_t threadAllocs();
uint64_t threadAllocBytes();

struct Span {
  const char *Name = "";
  uint64_t Id = 0;  ///< the module or request the span belongs to
  int Parent = -1;  ///< index into the same tracer's spans, or -1
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t Allocs = 0; ///< allocations inside the span, children included
  uint64_t Bytes = 0;
};

/// Span recorder for one thread.  Spans stay in memory until the run ends.
class Tracer {
public:
  explicit Tracer(unsigned Thread) : Thread(Thread) { Spans.reserve(4096); }

  int begin(const char *Name, uint64_t Id);
  void end(int Index);

  unsigned thread() const { return Thread; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  unsigned Thread;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Id)
      : T(T), Index(T ? T->begin(Name, Id) : -1) {}
  ~Scope() {
    if (T)
      T->end(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int Index;
};

/// Self time and self allocations of every span name: a span's own
/// duration minus its children's.
struct SpanTotals {
  uint64_t Count = 0;
  double SelfSeconds = 0; ///< exclusive of child spans
  uint64_t SelfAllocs = 0;
  uint64_t SelfBytes = 0;
};
std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<const Tracer *> &Tracers);

/// Writes every span as a Chrome trace-event file (viewable in Perfetto).
bool writeSpans(const std::string &Path,
                const std::vector<const Tracer *> &Tracers);

//===----------------------------------------------------------------------===
// Output check
//===----------------------------------------------------------------------===

/// One distinct program: its source and how to run it.
struct Program {
  std::string Name;
  std::string Source;
  std::string Entry = "main";
  std::vector<int64_t> Args;
  std::function<void(gis::Interpreter &, const gis::Module &)> Setup;
};

/// Totals of one output check.
struct CheckTotals {
  std::vector<bool> Ok;
  std::vector<ProgramRow> Rows; ///< priced programs only
  uint64_t Steps = 0;           ///< dynamic instructions, priced programs
  uint64_t Mispredicts = 0;
  uint64_t CyclesNone = 0;
  uint64_t OutputHash = 0; ///< hash of the printed scheduled programs
};

/// Checks every program (index-aligned with \p Outputs; a null output is
/// a failed compile): interprets the scheduled program and the unscheduled
/// compile of its source and compares printed values, return value and
/// final memory; prices those with \p Price set under the interlock-only
/// and the bimodal machine.  Failures are recorded in \p Out; spans go to
/// \p T when non-null.
CheckTotals checkAll(Outcome &Out, const std::vector<Program> &Programs,
                     const std::vector<const gis::Module *> &Outputs,
                     const std::vector<bool> &Price,
                     const gis::MachineDescription &MD, Tracer *T);

/// Static instructions of \p M (every block of every function).
uint64_t staticInstrs(const gis::Module &M);

/// The deliberate corruption of the self-test: removes the last CALL of
/// \p Entry, so the program loses an observable print.
bool corruptProgram(gis::Module &M, const std::string &Entry);

/// Adds cycles_none / cycles_bimodal / code_instrs over \p Rows: the
/// geometric mean of simulated cycles per 1000 instructions of the
/// unscheduled reference run, and the scheduled output's static
/// instructions per 1000 static instructions of the front-end output.
void addQualityMetrics(Outcome &Out, const std::vector<ProgramRow> &Rows);

//===----------------------------------------------------------------------===
// Per-layer probes and metric helpers
//===----------------------------------------------------------------------===

/// Probes the layers schedulePipeline calls internally -- analysis, opt,
/// trace, regalloc -- and the IR verifier, through their public entry
/// points on copies of \p Funcs (frontend output), outside any traced
/// window.  Layers the options leave off report zero.  \p Scheduled are
/// the same functions after the pipeline (for the verifier and printer).
void probeLayers(Outcome &Out,
                 const std::vector<const gis::Function *> &Funcs,
                 const std::vector<const gis::Module *> &Scheduled,
                 const gis::MachineDescription &MD,
                 const gis::PipelineOptions &Opts,
                 const gis::PipelineStats &RealRun, uint64_t RealFuncs,
                 bool ProbePrint);

/// Adds the sched.* metrics: times and allocations from the sched spans
/// over \p Funcs functions, counts from \p Stats.
void addSchedMetrics(Outcome &Out, const gis::PipelineStats &Stats,
                     const SpanTotals &Sched, uint64_t Funcs);

/// Adds the interp.* / machine.* metrics from the output check's spans.
void addCheckMetrics(Outcome &Out,
                     const std::map<std::string, SpanTotals> &Check,
                     const CheckTotals &Tot);

/// Sets \p Name to \p Value (adding it when missing).
void setMetric(std::vector<Metric> &Ms, const std::string &Name,
               double Value, const std::string &Unit);

/// \p Num / \p Den, or 0 when \p Den is 0.
inline double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / Den : 0;
}

/// Records failed_ratio from Out.Attempted and Out.Failed.
void addFailedRatio(Outcome &Out);

/// Host-speed calibration.  The speed of this kind of shared host drifts
/// by a fifth to a half over minutes (other tenants; steal time is not
/// visible inside the VM), and every wall time drifts with it.  A fixed,
/// allocation-heavy reference task that shares no code with gis (vectors,
/// a hash map, strings -- the compiler's own mix) slows down much as the
/// compiler does, so timed metrics are scaled by NominalRefSeconds over the reference's
/// duration around the measurement: figures as on a host where the task
/// takes NominalRefSeconds.  The raw figures are recorded beside them.
constexpr double NominalRefSeconds = 0.002;

class HostSpeed {
public:
  explicit HostSpeed(Clock::time_point Origin) : Origin(Origin) {}

  /// Runs the reference task once and records when and how long.
  void sample();
  /// Samples when the last sample is older than \p Every seconds.
  void maybeSample(double Every = 0.1);
  /// NominalRefSeconds over the median reference duration within a second
  /// of \p T (seconds since the origin; at least the 5 nearest samples).
  double factorAt(double T) const;
  /// Seconds since the origin.
  double now() const { return secondsSince(Origin); }
  /// Seconds spent in the reference task so far.
  double overhead() const { return Spent; }
  /// Median reference duration over all samples, in seconds.
  double medianRef() const;

private:
  Clock::time_point Origin;
  std::vector<std::pair<double, double>> Samples; ///< (time, duration)
  double Spent = 0;
};

/// Runs \p Setup \p Reps times, each a complete set-up, and records the
/// median, scaled by HostSpeed, as setup_s.
void timeSetup(Outcome &Out, unsigned Reps, const std::function<void()> &Setup);

/// Peak resident set: reset before a timed window, read after it.
void resetPeakRss();
double peakRssMiB(int Pid = 0);

//===----------------------------------------------------------------------===
// Workloads
//===----------------------------------------------------------------------===

Outcome runColdBatch(const RunOptions &O);
Outcome runPaperKernels(const RunOptions &O);
Outcome runServeMixed(const RunOptions &O);

/// The `gisbench daemon` subcommand: a CompileServer on a socket, stopped
/// by EOF on stdin.
int daemonMain(int Argc, char **Argv);

} // namespace gisbench

#endif // GISBENCH_BENCH_H
