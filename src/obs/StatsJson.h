//===- obs/StatsJson.h - Machine-readable statistics ------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON emission of the pipeline / engine statistics plus the full obs
/// counter registry, behind `gisc --stats-json FILE`.  The output is a
/// single JSON object; counter entries are keyed by their stable registry
/// keys (obs/Counters.cpp), so downstream tooling never parses the
/// human-readable --stats text.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_OBS_STATSJSON_H
#define GIS_OBS_STATSJSON_H

#include <iosfwd>

namespace gis {

struct PipelineStats;
struct EngineReport;
class ProfileData;
class Function;

namespace obs {

struct CounterSet;

/// Writes \p S as one JSON object (the "pipeline" object of every stats
/// document): every row of the PipelineStats scalar table under its JSON
/// key, then -- with \p WithRecordCounts -- the sizes of the per-run
/// records (region_tasks, diagnostics, decisions), which a scalar-only
/// total such as the daemon's does not keep.  \p Indent is the members'
/// indentation; the closing brace goes two spaces less.
void writePipelineJson(std::ostream &OS, const PipelineStats &S,
                       const char *Indent, bool WithRecordCounts = true);

/// Writes the counter registry as one JSON object keyed by counterKey.
void writeCountersJson(std::ostream &OS, const CounterSet &C,
                       const char *Indent);

/// Writes one pipeline run's statistics ({"schema": "gis-stats-v2", ...}):
/// the PipelineStats scalars, the counter registry, and the per-region
/// times.  When \p Profile carries data for \p ProfiledEntry (gisc
/// --profile), a "profile" section surfaces its per-block execution
/// counts and per-edge branch counts.
void writePipelineStatsJson(std::ostream &OS, const PipelineStats &S,
                            const ProfileData *Profile = nullptr,
                            const Function *ProfiledEntry = nullptr);

/// Writes a batch-engine report ({"schema": "gis-engine-stats-v2", ...}):
/// engine scalars, the aggregate pipeline statistics and counter registry,
/// and one record per compiled function.
void writeEngineReportJson(std::ostream &OS, const EngineReport &R);

} // namespace obs
} // namespace gis

#endif // GIS_OBS_STATSJSON_H
