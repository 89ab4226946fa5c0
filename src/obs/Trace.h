//===- obs/Trace.h - Structured event tracer --------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-aware structured event tracer for the scheduling pipeline:
/// spans (begin/end pairs) for pipeline stages, region waves, region
/// tasks, blocks, and instant events for cycle-level list-scheduler steps,
/// exported as Chrome-trace JSON (`chrome://tracing`, Perfetto) via
/// `gisc --trace-json FILE`.
///
/// Performance contract:
///  - *Off* (the default), every record call is a single relaxed atomic
///    load and a branch -- no locks, no allocation.  Instrumentation may
///    therefore stay in hot scheduler loops unconditionally.
///  - *On*, each thread appends to its own buffer; the only lock is taken
///    once per (thread, enable-generation) to register the buffer.  Worker
///    threads of the engine pool trace concurrently without contention
///    (scripts/check.sh runs the obs tests under TSan).
///
/// Zero-perturbation contract: the tracer only observes; enabling it never
/// changes a scheduling decision.  tests/trace_test.cpp asserts the
/// scheduled IR is bit-identical with tracing on and off.
///
/// Usage contract: enable(), disable(), clear() and the export routines
/// must be called from quiescent points (no pipeline running).  Spans are
/// closed by RAII (TraceSpan), so under that contract every 'B' event has
/// a matching 'E' on the same thread.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_OBS_TRACE_H
#define GIS_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gis {
namespace obs {

/// One recorded event.  Name and category are string literals (the
/// instrumentation points own them); Detail carries dynamic text such as
/// function names.
struct TraceEvent {
  char Ph = 'B';             ///< 'B' begin, 'E' end, 'i' instant
  const char *Name = "";
  const char *Cat = "";
  uint64_t TsNs = 0;         ///< nanoseconds since enable()
  unsigned Tid = 0;          ///< tracer-assigned thread index
  /// Up to two small integer args (INT64_MIN: absent).
  const char *Arg0Key = nullptr;
  int64_t Arg0 = 0;
  const char *Arg1Key = nullptr;
  int64_t Arg1 = 0;
  std::string Detail;        ///< optional "detail" string arg
};

/// The process-wide tracer.
class Tracer {
public:
  static Tracer &instance();

  /// Starts a fresh trace: drops previously collected events and opens a
  /// new registration generation (stale thread-local buffers from earlier
  /// generations are never written again).
  void enable();
  /// Stops recording.  Collected events stay readable until clear() or the
  /// next enable().
  void disable();
  void clear();

  bool enabled() const { return On.load(std::memory_order_relaxed); }

  void begin(const char *Name, const char *Cat,
             const char *Arg0Key = nullptr, int64_t Arg0 = 0,
             const char *Arg1Key = nullptr, int64_t Arg1 = 0,
             std::string Detail = {}) {
    if (enabled())
      record('B', Name, Cat, Arg0Key, Arg0, Arg1Key, Arg1, std::move(Detail));
  }
  void end(const char *Name, const char *Cat) {
    if (enabled())
      record('E', Name, Cat, nullptr, 0, nullptr, 0, {});
  }
  void instant(const char *Name, const char *Cat,
               const char *Arg0Key = nullptr, int64_t Arg0 = 0,
               const char *Arg1Key = nullptr, int64_t Arg1 = 0) {
    if (enabled())
      record('i', Name, Cat, Arg0Key, Arg0, Arg1Key, Arg1, {});
  }

  /// All collected events, per-thread streams concatenated in thread
  /// registration order (within a thread, program order).  Quiescent
  /// points only.
  std::vector<TraceEvent> snapshot() const;

  /// Writes the collected events as a Chrome-trace JSON object
  /// ({"traceEvents": [...]}); loads in chrome://tracing and Perfetto.
  void exportChromeJson(std::ostream &OS) const;

  /// Events dropped because a thread hit its buffer cap (reported in the
  /// export metadata as well -- a truncated trace must not look complete).
  uint64_t droppedEvents() const;

  /// Per-thread event cap (generous; a runaway cycle loop must not eat the
  /// host's memory).
  static constexpr size_t MaxEventsPerThread = 1u << 22;

private:
  Tracer() = default;

  struct ThreadBuf {
    unsigned Tid = 0;
    std::vector<TraceEvent> Events;
    uint64_t Dropped = 0;
  };

  void record(char Ph, const char *Name, const char *Cat, const char *A0K,
              int64_t A0, const char *A1K, int64_t A1, std::string Detail);
  ThreadBuf &localBuf();

  std::atomic<bool> On{false};
  std::atomic<uint64_t> Gen{0};
  std::atomic<uint64_t> EpochNs{0}; ///< steady-clock ns at enable()

  mutable std::mutex Mu; ///< guards Bufs (registration and snapshot)
  std::vector<std::unique_ptr<ThreadBuf>> Bufs;
};

/// RAII span: emits 'B' on construction when tracing is on, and the
/// matching 'E' on destruction.  If tracing was off at construction the
/// span is inert, so spans never emit an unmatched 'E'.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Cat,
            const char *Arg0Key = nullptr, int64_t Arg0 = 0,
            const char *Arg1Key = nullptr, int64_t Arg1 = 0,
            std::string Detail = {})
      : Name(Name), Cat(Cat), Active(Tracer::instance().enabled()) {
    if (Active)
      Tracer::instance().begin(Name, Cat, Arg0Key, Arg0, Arg1Key, Arg1,
                               std::move(Detail));
  }
  ~TraceSpan() {
    if (Active)
      Tracer::instance().end(Name, Cat);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Name;
  const char *Cat;
  bool Active;
};

} // namespace obs
} // namespace gis

#endif // GIS_OBS_TRACE_H
