//===- obs/Decision.h - Scheduler decision log ------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision log behind `gisc --explain`: one record per instruction
/// the list-scheduling engine picked, carrying the candidate set it beat,
/// the Section 5.2 comparator rule that separated it from the best
/// runner-up, and the motion classification (own / useful / speculative).
///
/// Records are recorded into per-task buffers and merged along the same
/// deterministic paths as PipelineStats (region-index order within a wave,
/// input order across functions), so the rendered log is bit-identical for
/// every --jobs width.  Collection is opt-in
/// (PipelineOptions::CollectDecisions); the default pipeline never
/// allocates a record.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_OBS_DECISION_H
#define GIS_OBS_DECISION_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gis {
namespace obs {

struct CounterSet;

/// Motion classification of a picked instruction.
enum class MotionKind : uint8_t {
  Own,         ///< the target block's own instruction
  Useful,      ///< external pick from U(A)
  Speculative, ///< external pick gambling on >= 1 branch
};

/// Which comparator separated the winner from the best runner-up.
enum class RuleId : uint8_t {
  None, ///< uncontested pick (single live candidate)
  UsefulOverSpec,
  SpecFreq,
  DelayUseful,
  DelaySpec,
  CritPathUseful,
  CritPathSpec,
  SourceOrder,
};

/// Stable short name ("class", "freq", "D/useful", ..., "order"; "-" for
/// None), used by the rendered log.
std::string_view ruleName(RuleId Rule);

/// One pick of the list-scheduling engine.
struct Decision {
  std::string Fn;          ///< function name (filled by the pipeline)
  const char *Stage = "";  ///< "global" or "local"
  int LoopIdx = -2;        ///< region loop index (-1 top level, -2 none)
  unsigned Wave = 0;       ///< region wave (global stage only)
  unsigned TargetBlock = 0;
  uint64_t Cycle = 0;
  unsigned Instr = 0;      ///< picked instruction id
  std::string Op;          ///< picked instruction mnemonic
  MotionKind Kind = MotionKind::Own;
  unsigned FromBlock = 0;  ///< home block at pick time (external picks)
  RuleId Rule = RuleId::None;
  /// The pick and every live candidate it outranked, best-first
  /// (instruction ids; the pick itself is Candidates.front()).  A
  /// higher-priority candidate stalled on a busy unit is not listed: the
  /// pick did not beat it by rule, it merely found a free unit first.
  std::vector<unsigned> Candidates;
};

/// Renders the human-readable `--explain` log, one line per decision, in
/// record order.  The format is covered by golden tests
/// (tests/trace_test.cpp); change it only together with the goldens.
void renderDecisions(const std::vector<Decision> &Log, std::ostream &OS);

/// Borrowed observation buffers handed down to the schedulers; any member
/// may be null (that aspect is then not recorded).
struct SchedSink {
  CounterSet *Counters = nullptr;
  std::vector<Decision> *Decisions = nullptr;
};

} // namespace obs
} // namespace gis

#endif // GIS_OBS_DECISION_H
