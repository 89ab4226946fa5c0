//===- sched/Transaction.cpp - Guarded function transforms -----------------===//

#include "sched/Transaction.h"

#include "interp/DifferentialOracle.h"
#include "ir/Checkpoint.h"
#include "ir/Verifier.h"
#include "support/Assert.h"
#include "support/FaultInjection.h"

using namespace gis;

TransactionResult
gis::runFunctionTransaction(Function &F, const char *Stage,
                            const TransactionConfig &Cfg,
                            const std::function<Status()> &Body) {
  TransactionResult R;
  if (!Cfg.Enabled) {
    R.S = Body();
    if (!R.S.isOk())
      fatalError(__FILE__, __LINE__, R.S.str().c_str());
    R.Committed = true;
    return R;
  }

  FunctionSnapshot Snap(F);
  R.S = Body();
  if (!R.S.isOk())
    R.EngineFailure = true;

  if (R.S.isOk() && FaultInjector::instance().shouldFire(Stage) &&
      corruptFunctionForTest(F))
    R.FaultInjected = true;

  if (R.S.isOk() && Cfg.VerifyStructural) {
    std::vector<std::string> Problems = verifyFunction(F);
    if (!Problems.empty()) {
      R.S = Status::error(ErrorCode::VerifierStructural, Problems.front());
      R.VerifierFailure = true;
    }
  }
  if (R.S.isOk() && Cfg.EnableOracle && Cfg.OracleModule) {
    OracleOptions OOpts;
    OOpts.MaxSteps = Cfg.OracleMaxSteps;
    OracleReport Rep =
        runDifferentialOracle(*Cfg.OracleModule, Snap.function(), F, OOpts);
    if (Rep.Verdict == OracleVerdict::Mismatch) {
      R.S = Status::error(ErrorCode::OracleMismatch, Rep.Detail);
      R.OracleMismatch = true;
    }
  }

  if (R.S.isOk()) {
    R.Committed = true;
    return R;
  }

  Snap.restore(F);
  return R;
}

TransactionResult
gis::runFunctionTransactionDelta(Function &F, const char *Stage,
                                 const TransactionConfig &Cfg,
                                 DeltaCheckpoint &Ck,
                                 const std::function<Status()> &Body) {
  if (!Cfg.Enabled) {
    TransactionResult R;
    R.S = Body();
    if (!R.S.isOk())
      fatalError(__FILE__, __LINE__, R.S.str().c_str());
    R.Committed = true;
    return R;
  }
  // The oracle needs the complete pre-body function as its reference;
  // delegate to the full-snapshot path (the body still notes into Ck,
  // harmlessly).
  if (Cfg.EnableOracle && Cfg.OracleModule)
    return runFunctionTransaction(F, Stage, Cfg, Body);

#ifdef GIS_SLOWPATH_CHECK
  FunctionSnapshot RefSnap(F);
#endif

  TransactionResult R;
  R.S = Body();
  if (!R.S.isOk())
    R.EngineFailure = true;

  // Whole-function test corruption rewrites instruction lists only; save
  // every list first so the checkpoint can undo it.
  if (R.S.isOk() && FaultInjector::instance().shouldFire(Stage)) {
    Ck.noteAllBlocks();
    if (corruptFunctionForTest(F))
      R.FaultInjected = true;
  }

  // "ckpt-delta" fault: lose one record rollback genuinely needs, then
  // corrupt so the verifier forces that rollback.  Only meaningful when
  // the body actually produced records.
  if (R.S.isOk() && Ck.hasRecords() &&
      FaultInjector::instance().shouldFire("ckpt-delta")) {
    if (Ck.dropOneRecordForTest()) {
      Ck.noteAllBlocks();
      if (corruptFunctionForTest(F))
        R.FaultInjected = true;
    }
  }

  if (R.S.isOk() && Cfg.VerifyStructural) {
    std::vector<std::string> Problems = verifyFunction(F);
    if (!Problems.empty()) {
      R.S = Status::error(ErrorCode::VerifierStructural, Problems.front());
      R.VerifierFailure = true;
    }
  }

  if (R.S.isOk()) {
    R.Committed = true;
    return R;
  }

  if (!Ck.restore(F))
    fatalError(__FILE__, __LINE__,
               "delta checkpoint integrity check failed: rollback lost a "
               "record (manifest mismatch)");
#ifdef GIS_SLOWPATH_CHECK
  if (!functionsIdentical(F, RefSnap.function()) ||
      !cfgEdgesIdentical(F, RefSnap.function()))
    fatalError(__FILE__, __LINE__,
               "slow-path check: delta rollback diverges from the full "
               "snapshot");
#endif
  return R;
}
