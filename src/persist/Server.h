//===- persist/Server.h - Fault-tolerant compile daemon ---------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `gisc --serve` compile daemon: a Unix-socket server that schedules
/// compile requests (persist/Protocol.h) against one shared memory cache
/// and one shared disk tier, built to stay predictable under overload:
///
///   - Bounded admission: the accept loop holds at most QueueDepth pending
///     connections.  When the queue is full, the next connection gets an
///     immediate `SHED <retry_ms>` (never silent backlog growth) and
///     ServerStats::Shed bumps -- the client backs off and retries
///     (persist/Client.h).
///
///   - Per-request deadlines: a COMPILE request carries its deadline in
///     milliseconds, measured from admission.  A worker that dequeues a
///     request past its deadline answers `TIMEOUT` without compiling; a
///     compile that has started runs to completion (one function's
///     schedule is short relative to any sane deadline).
///
///   - Graceful drain: requestStop() (safe to call from a SIGTERM handler
///     context via a polled flag) stops admissions; drainAndJoin() lets
///     the workers finish every admitted request, answers them all, joins
///     the threads and unlinks the socket.  No admitted request is ever
///     dropped without a response.
///
/// Workers serve requests with per-worker CompileEngines over the shared
/// caches, so a schedule computed for one client is a memory hit for the
/// next, and -- with a cache directory configured -- survives daemon
/// restarts via the disk tier.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_PERSIST_SERVER_H
#define GIS_PERSIST_SERVER_H

#include "engine/CompileEngine.h"
#include "machine/MachineDescription.h"
#include "obs/Counters.h"
#include "persist/DiskCache.h"
#include "sched/Pipeline.h"
#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gis {
namespace persist {

struct ServerOptions {
  std::string SocketPath;
  /// Compile worker threads (each owns an engine over the shared caches).
  unsigned Workers = 2;
  /// Admission-queue bound; connection QueueDepth+1 is shed.
  unsigned QueueDepth = 16;
  /// Deadline applied to requests that pass 0.
  unsigned DefaultDeadlineMs = 30000;
  /// Retry hint carried in SHED responses.
  unsigned ShedRetryMs = 50;
  /// Directory of the shared disk tier; empty serves memory-only.
  std::string CacheDir;
  /// Size bound of the disk tier in bytes (0: unbounded); see
  /// DiskScheduleCache.  Evictions are reported by the STATS verb.
  uint64_t CacheDirMaxBytes = 0;
  size_t CacheCapacity = 4096;
  /// Test hook: stall this many milliseconds before each compile, so tests
  /// can fill the queue / expire deadlines deterministically.
  unsigned TestHoldMs = 0;
};

/// Monotonic totals over the server's lifetime.
struct ServerStats {
  uint64_t Accepted = 0;  ///< admitted to the queue
  uint64_t Completed = 0; ///< answered with OK/ERR/PONG/stats
  uint64_t Shed = 0;      ///< rejected at admission (queue full)
  uint64_t TimedOut = 0;  ///< deadline expired while queued
  uint64_t Errors = 0;    ///< malformed requests / compile failures
};

class CompileServer {
public:
  CompileServer(const MachineDescription &MD, const PipelineOptions &Opts,
                const ServerOptions &SOpts);
  ~CompileServer();

  /// Binds the socket, starts the accept loop and the workers.  Fails
  /// (ServeRejected / PersistIOFailed) when the socket cannot be bound or
  /// a configured cache directory is unusable.
  Status start();

  /// Stops admitting new connections.  Only sets an atomic flag, so a
  /// signal handler may set its own flag and the owner call this from the
  /// main loop (gisc does exactly that for SIGTERM).
  void requestStop();

  /// Drains: stops admissions, serves every queued request, joins all
  /// threads, unlinks the socket.  Idempotent.
  void drainAndJoin();

  bool running() const { return Running.load(std::memory_order_acquire); }
  const std::string &socketPath() const { return SOpts.SocketPath; }

  ServerStats stats() const;
  /// Aggregated obs counters of every request served (includes the
  /// engine's cache.* and persist.* registry entries).
  obs::CounterSet counters() const;
  /// The STATS-response JSON: the stats() totals ("serve"), the disk tier,
  /// the PipelineStats scalars summed over every compile ("pipeline") and
  /// counters().
  std::string statsJson() const;

private:
  struct Pending {
    int Fd = -1;
    std::chrono::steady_clock::time_point Admitted;
  };

  void acceptLoop();
  void workerLoop();
  /// Reads one request from \p Fd, serves it, answers, closes.
  void serveConnection(int Fd,
                       std::chrono::steady_clock::time_point Admitted,
                       CompileEngine &Engine);

  MachineDescription MD;
  PipelineOptions Opts;
  ServerOptions SOpts;

  ScheduleCache MemCache;
  std::unique_ptr<DiskScheduleCache> Disk; ///< null when no CacheDir

  int ListenFd = -1;
  std::thread Acceptor;
  std::vector<std::thread> WorkerThreads;

  mutable std::mutex Mu;
  std::condition_variable QueueCv;
  std::deque<Pending> Queue;
  ServerStats Counts;
  /// Scalar totals of every compile served (PipelineStats::addScalars);
  /// its vectors stay empty.
  PipelineStats PipelineTotals;
  obs::CounterSet Aggregated;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Running{false};
  bool Joined = false;
};

} // namespace persist
} // namespace gis

#endif // GIS_PERSIST_SERVER_H
