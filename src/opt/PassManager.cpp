//===- opt/PassManager.cpp - Transactional optimizer driver ----------------===//

#include "opt/PassManager.h"

#include "obs/Trace.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "opt/StrengthReduce.h"
#include "opt/ValueNumbering.h"

#include <chrono>

using namespace gis;
using namespace gis::opt;

namespace {

/// Runs one pass body; returns the work count through \p Work.
Status runPassBody(PassId P, Function &F, const MachineDescription &MD,
                   unsigned &Work) {
  switch (P) {
  case PassId::Peephole:
    Work = runPeephole(F);
    return Status::ok();
  case PassId::StrengthReduce:
    Work = runStrengthReduce(F, MD);
    return Status::ok();
  case PassId::ValueNumbering:
    Work = runValueNumbering(F);
    return Status::ok();
  case PassId::DeadCode:
    Work = runDeadCodeElim(F);
    return Status::ok();
  }
  return Status::ok();
}

void recordWork(PassId P, unsigned Work, OptStats &Stats) {
  switch (P) {
  case PassId::Peephole:
    Stats.PeepholeRewrites += Work;
    break;
  case PassId::StrengthReduce:
    Stats.StrengthReduced += Work;
    break;
  case PassId::ValueNumbering:
    Stats.ValuesNumbered += Work;
    break;
  case PassId::DeadCode:
    Stats.DeadRemoved += Work;
    break;
  }
}

} // namespace

OptRunReport gis::opt::runOptPasses(Function &F, const MachineDescription &MD,
                                    const OptOptions &Opts,
                                    const TransactionConfig &Tx,
                                    obs::CounterSet *Counters) {
  using Clock = std::chrono::steady_clock;
  OptRunReport Report;
  for (PassId P : passPipeline()) {
    if (!Opts.enabled(P))
      continue;
    const PassInfo &Info = passInfo(P);
    obs::TraceSpan Span(Info.Stage, "opt");
    auto Start = Clock::now();

    if (Tx.Enabled)
      ++Report.TransactionsRun;
    unsigned Work = 0;
    TransactionResult R = runFunctionTransaction(
        F, Info.Stage, Tx, [&] { return runPassBody(P, F, MD, Work); });

    double Seconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
    Report.Opt.PassTimes.push_back({P, Seconds});

    if (R.EngineFailure)
      ++Report.EngineFailures;
    if (R.FaultInjected)
      ++Report.FaultsInjected;
    if (R.VerifierFailure)
      ++Report.VerifierFailures;
    if (R.OracleMismatch)
      ++Report.OracleMismatches;

    if (R.Committed) {
      ++Report.Opt.PassesRun;
      recordWork(P, Work, Report.Opt);
      continue;
    }

    ++Report.TransformsRolledBack;
    if (Counters)
      Counters->bump(obs::Rollbacks);
    obs::Tracer::instance().instant("rollback", "opt");
    reportDiagnostic(Report.Diags, R.S, F.name(), Info.Stage, -1);
  }
  return Report;
}
