//===- gisbench/src/Check.cpp - Output check and schedule quality ---------===//
//
// Every scheduled program is interpreted once per run, after the timed
// window, and compared with an interpretation of the same source compiled
// without the pipeline: printed values, return value and final memory.
// The reference comes from the front end and the interpreter only, never
// from the scheduler under test.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "machine/Timing.h"
#include "support/Hashing.h"

#include <cmath>
#include <map>
#include <sstream>

using namespace gis;

namespace gisbench {

namespace {

/// Random programs can need more than the interpreter's 10M default.
constexpr uint64_t StepBudget = 400'000'000;

struct Observed {
  ExecResult R;
  std::map<int64_t, int64_t> Memory; ///< nonzero words only
  std::vector<TraceEntry> Trace;
  std::string Error;
};

Observed runOnce(const Program &P, const Module &M, bool Record, Tracer *T) {
  Observed O;
  const Function *Entry = nullptr;
  for (const auto &F : M.functions())
    if (F->name() == P.Entry)
      Entry = F.get();
  if (!Entry) {
    O.Error = "entry function " + P.Entry + " missing";
    return O;
  }
  if (Entry->params().size() != P.Args.size()) {
    O.Error = "entry argument count mismatch";
    return O;
  }
  Interpreter I(M);
  I.enableTrace(Record);
  if (P.Setup)
    P.Setup(I, M);
  for (size_t K = 0; K != P.Args.size(); ++K)
    I.setReg(Entry->params()[K], P.Args[K]);
  {
    Scope S(T, "interp.run", 0);
    O.R = I.run(*Entry, StepBudget);
  }
  if (O.R.Trapped)
    O.Error = "trapped: " + O.R.TrapReason;
  for (auto [Addr, V] : I.memory())
    if (V != 0)
      O.Memory[Addr] = V;
  if (Record)
    O.Trace = I.trace();
  return O;
}

/// Result of checking one scheduled program.
struct CheckResult {
  bool Ok = false;
  std::string Detail;
  ProgramRow Row;
  uint64_t Mispredicts = 0;
  uint64_t Steps = 0; ///< dynamic instructions of the scheduled run
};

CheckResult checkProgram(const Program &P, const Module &Scheduled,
                         const MachineDescription &MD, bool Price,
                         Tracer *T) {
  CheckResult C;
  C.Row.Name = P.Name;
  C.Row.CodeInstrs = staticInstrs(Scheduled);
  CompileResult Ref = compileMiniC(P.Source);
  if (!Ref.ok()) {
    C.Detail = P.Name + ": reference compile failed: " + Ref.Error;
    return C;
  }
  C.Row.RefCode = staticInstrs(*Ref.M);
  Observed Want = runOnce(P, *Ref.M, /*Record=*/false, T);
  Observed Got = runOnce(P, Scheduled, Price, T);
  if (!Want.Error.empty() || !Got.Error.empty()) {
    C.Detail = P.Name + ": " +
               (Want.Error.empty() ? "scheduled " + Got.Error
                                   : "reference " + Want.Error);
    return C;
  }
  if (Got.R.Printed != Want.R.Printed)
    C.Detail = P.Name + ": printed values differ";
  else if (Got.R.HasReturnValue != Want.R.HasReturnValue ||
           Got.R.ReturnValue != Want.R.ReturnValue)
    C.Detail = P.Name + ": return value differs";
  else if (Got.Memory != Want.Memory)
    C.Detail = P.Name + ": final memory differs";
  if (!C.Detail.empty())
    return C;
  C.Ok = true;
  C.Steps = Got.R.InstrCount;
  C.Row.RefInstrs = Want.R.InstrCount;
  if (!Price)
    return C;
  TimingSimulator Sim(MD);
  {
    Scope S(T, "machine.simulate", 0);
    C.Row.CyclesNone = Sim.simulate(Got.Trace).Cycles;
  }
  BranchPredictorOptions PO;
  PO.Kind = PredictorKind::Bimodal2Bit;
  Sim.setPredictor(PO);
  {
    Scope S(T, "machine.simulate", 0);
    TimingResult TR = Sim.simulate(Got.Trace);
    C.Row.CyclesBimodal = TR.Cycles;
    C.Mispredicts = TR.Mispredicts;
  }
  return C;
}

} // namespace

uint64_t staticInstrs(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (BlockId B : F->layout())
      N += F->block(B).instrs().size();
  return N;
}

CheckTotals checkAll(Outcome &Out, const std::vector<Program> &Programs,
                     const std::vector<const Module *> &Outputs,
                     const std::vector<bool> &Price,
                     const MachineDescription &MD, Tracer *T) {
  CheckTotals Tot;
  Tot.Ok.assign(Programs.size(), false);
  HashBuilder Hash;
  for (size_t K = 0; K != Programs.size(); ++K) {
    if (!Outputs[K]) {
      Out.fail(Programs[K].Name + ": no scheduled output");
      continue;
    }
    std::ostringstream OS;
    printModule(*Outputs[K], OS);
    Hash.addString(OS.str());
    CheckResult C = checkProgram(Programs[K], *Outputs[K], MD, Price[K], T);
    if (!C.Ok) {
      Out.fail(C.Detail);
      continue;
    }
    Tot.Ok[K] = true;
    if (!Price[K])
      continue;
    Tot.Rows.push_back(C.Row);
    Tot.Steps += C.Steps;
    Tot.Mispredicts += C.Mispredicts;
    Tot.CyclesNone += C.Row.CyclesNone;
  }
  Tot.OutputHash = Hash.hash();
  return Tot;
}

bool corruptProgram(Module &M, const std::string &Entry) {
  Function *F = M.findFunction(Entry);
  if (!F)
    return false;
  for (auto BI = F->layout().rbegin(); BI != F->layout().rend(); ++BI) {
    std::vector<InstrId> &Instrs = F->block(*BI).instrs();
    for (auto It = Instrs.rbegin(); It != Instrs.rend(); ++It)
      if (F->instr(*It).opcode() == Opcode::CALL) {
        Instrs.erase(std::next(It).base());
        return true;
      }
  }
  return false;
}

void addQualityMetrics(Outcome &Out, const std::vector<ProgramRow> &Rows) {
  // Programs differ in run length by orders of magnitude and in size by
  // several times, so raw cycles and raw sizes move with the seed's draw
  // of programs.  Dividing by the same program's unscheduled front-end
  // output -- fixed by the source and the front end, untouched by the
  // scheduler -- keeps each ratio moving exactly as the scheduled
  // program's cycles or size do.
  double LogNone = 0, LogBimodal = 0;
  uint64_t Code = 0, RefCode = 0;
  unsigned N = 0;
  for (const ProgramRow &R : Rows) {
    Code += R.CodeInstrs;
    RefCode += R.RefCode;
    if (!R.RefInstrs || !R.CyclesNone)
      continue;
    LogNone += std::log(1000.0 * R.CyclesNone / R.RefInstrs);
    LogBimodal += std::log(1000.0 * R.CyclesBimodal / R.RefInstrs);
    ++N;
  }
  double None = N ? std::exp(LogNone / N) : 0;
  double Bimodal = N ? std::exp(LogBimodal / N) : 0;
  double Size = RefCode ? 1000.0 * Code / RefCode : 0;
  setMetric(Out.EndToEnd, "cycles_none", None, "cycles/kinstr");
  setMetric(Out.EndToEnd, "cycles_bimodal", Bimodal, "cycles/kinstr");
  setMetric(Out.EndToEnd, "code_instrs", Size, "instrs/kinstr");
  Out.Deterministic["cycles_none"] = None;
  Out.Deterministic["cycles_bimodal"] = Bimodal;
  Out.Deterministic["code_instrs"] = Size;
  Out.Programs = Rows;
}

void addCheckMetrics(Outcome &Out,
                     const std::map<std::string, SpanTotals> &Check,
                     const CheckTotals &Tot) {
  const uint64_t Steps = Tot.Steps, Mispredicts = Tot.Mispredicts;
  auto PerRun = [&](const char *Name) {
    auto It = Check.find(Name);
    return It == Check.end() || !It->second.Count
               ? 0.0
               : 1e6 * It->second.SelfSeconds / It->second.Count;
  };
  setMetric(Out.PerLayer, "interp.us_per_run", PerRun("interp.run"), "us");
  setMetric(Out.PerLayer, "interp.steps", static_cast<double>(Steps),
            "instrs");
  setMetric(Out.PerLayer, "machine.us_per_run", PerRun("machine.simulate"),
            "us");
  setMetric(Out.PerLayer, "machine.mispredicts",
            static_cast<double>(Mispredicts), "count");
  double Ipc =
      Tot.CyclesNone ? static_cast<double>(Steps) / Tot.CyclesNone : 0;
  setMetric(Out.PerLayer, "machine.ipc", Ipc, "instrs/cycle");
  Out.Deterministic["interp.steps"] = static_cast<double>(Steps);
  Out.Deterministic["machine.mispredicts"] = static_cast<double>(Mispredicts);
  Out.Deterministic["machine.ipc"] = Ipc;
}

} // namespace gisbench
