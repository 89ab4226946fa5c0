//===- sched/Transaction.h - Guarded function transforms --------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transactional execution core shared by the scheduling pipeline
/// (sched/Pipeline.cpp) and the mid-end optimizer (opt/PassManager.cpp):
/// snapshot a function, run a transform, pass the result through the fault
/// injector, the structural IR verifier and the differential interpreter
/// oracle, then commit or restore the snapshot.
///
/// This layer is deliberately policy-free: it does not touch pipeline
/// statistics, obs counters, or diagnostics.  Callers translate the
/// returned TransactionResult into whatever bookkeeping their subsystem
/// keeps (the pipeline's PipelineStats, the optimizer's OptRunReport), so
/// the exact counter semantics each subsystem documents stay local to it.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_TRANSACTION_H
#define GIS_SCHED_TRANSACTION_H

#include "ir/Module.h"
#include "support/Status.h"

#include <functional>

namespace gis {

/// Guard configuration of one transaction (a subset of PipelineOptions;
/// see the flags of the same names there for full documentation).
struct TransactionConfig {
  /// With transactions disabled the body runs bare: no snapshot, no
  /// verification, and a failure Status aborts the process (the
  /// historical fail-fast contract).
  bool Enabled = true;
  /// Run the structural IR verifier (ir/Verifier.h) on the body's output.
  bool VerifyStructural = true;
  /// Run the interpreter-based differential oracle against the snapshot.
  /// Requires OracleModule; ignored when it is null.
  bool EnableOracle = false;
  /// Module the function belongs to (call targets, global arrays).
  /// Borrowed; may be null, which disables the oracle.
  const Module *OracleModule = nullptr;
  /// Interpreter step budget per oracle run.
  uint64_t OracleMaxSteps = 500'000;
};

/// Outcome of one transaction.  At most one of the failure flags is set;
/// all are false on commit (except FaultInjected, which reports that the
/// deliberate corruption fired and is always paired with a rollback when
/// the verifier or oracle catches it).
struct TransactionResult {
  Status S = Status::ok();
  bool Committed = false;
  /// The body itself reported a recoverable engine failure.
  bool EngineFailure = false;
  /// The structural verifier rejected the transformed function.
  bool VerifierFailure = false;
  /// The differential oracle observed diverging behaviour.
  bool OracleMismatch = false;
  /// A GIS_FAULT_INJECT corruption fired on this stage.
  bool FaultInjected = false;
};

/// Runs \p Body over \p F as a guarded transaction.  \p Stage is the
/// stable stage name -- it keys fault injection (GIS_FAULT_INJECT) and
/// should match the name callers use in trace events and diagnostics.
/// On any failure the function is restored to its pre-body snapshot
/// before returning.
TransactionResult
runFunctionTransaction(Function &F, const char *Stage,
                       const TransactionConfig &Cfg,
                       const std::function<Status()> &Body);

class DeltaCheckpoint;

/// Delta variant of runFunctionTransaction: instead of snapshotting the
/// whole function, the caller constructs \p Ck against \p F immediately
/// before this call and the body notes each block/instruction (and, for a
/// CFG transform, the layout) before first mutating it; rollback drops
/// what the body appended and re-applies only those records, checked
/// against the construction-time manifest (a lost record is a fatal
/// error, never a silent mis-rollback).  Two deliberate fallbacks keep
/// semantics identical to the full-snapshot path: an enabled oracle needs
/// the complete pre-body function, so the transaction delegates to
/// runFunctionTransaction; and under -DGIS_SLOWPATH_CHECK a full snapshot
/// is taken anyway and every rollback is cross-checked bit-for-bit, CFG
/// edges included, against it.  The "ckpt-delta" fault stage drops one
/// needed record after the body to prove the manifest containment fires.
TransactionResult
runFunctionTransactionDelta(Function &F, const char *Stage,
                            const TransactionConfig &Cfg, DeltaCheckpoint &Ck,
                            const std::function<Status()> &Body);

} // namespace gis

#endif // GIS_SCHED_TRANSACTION_H
