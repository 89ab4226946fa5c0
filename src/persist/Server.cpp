//===- persist/Server.cpp - Fault-tolerant compile daemon ------------------===//

#include "persist/Server.h"

#include "frontend/CodeGen.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/Counters.h"
#include "obs/StatsJson.h"
#include "persist/Protocol.h"
#include "support/Format.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gis;
using namespace gis::persist;

namespace {

using Clock = std::chrono::steady_clock;

/// Caps how long a worker blocks on one peer's socket I/O, so a stalled
/// or dead client cannot pin a worker forever.
void setSocketTimeouts(int Fd) {
  timeval Tv{};
  Tv.tv_sec = 5;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

} // namespace

CompileServer::CompileServer(const MachineDescription &MD,
                             const PipelineOptions &Opts,
                             const ServerOptions &SOpts)
    : MD(MD), Opts(Opts), SOpts(SOpts),
      MemCache(this->SOpts.CacheCapacity) {
  if (this->SOpts.Workers == 0)
    this->SOpts.Workers = 1;
  if (this->SOpts.QueueDepth == 0)
    this->SOpts.QueueDepth = 1;
}

CompileServer::~CompileServer() { drainAndJoin(); }

Status CompileServer::start() {
  if (SOpts.SocketPath.empty())
    return Status::error(ErrorCode::ServeRejected, "no socket path");
  if (SOpts.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path))
    return Status::error(ErrorCode::ServeRejected,
                         "socket path too long: " + SOpts.SocketPath);

  if (!SOpts.CacheDir.empty()) {
    Disk = std::make_unique<DiskScheduleCache>(SOpts.CacheDir,
                                               SOpts.CacheDirMaxBytes);
    // The daemon fails fast on an unusable cache directory: unlike a
    // one-shot gisc run, a long-lived server silently degraded from its
    // first second is a misconfiguration nobody would notice.
    if (Status S = Disk->open(); !S.isOk())
      return S;
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Status::error(ErrorCode::ServeRejected,
                         formatString("socket: %s", std::strerror(errno)));
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SOpts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(SOpts.SocketPath.c_str()); // stale socket from a previous run
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Status S = Status::error(
        ErrorCode::ServeRejected,
        formatString("bind %s: %s", SOpts.SocketPath.c_str(),
                     std::strerror(errno)));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }
  if (::listen(ListenFd, static_cast<int>(SOpts.QueueDepth) + 8) < 0) {
    Status S = Status::error(
        ErrorCode::ServeRejected,
        formatString("listen: %s", std::strerror(errno)));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }

  Running.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  WorkerThreads.reserve(SOpts.Workers);
  for (unsigned K = 0; K != SOpts.Workers; ++K)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  return Status::ok();
}

void CompileServer::requestStop() {
  Stopping.store(true, std::memory_order_release);
}

void CompileServer::drainAndJoin() {
  if (Joined)
    return;
  Joined = true;
  requestStop();
  if (Acceptor.joinable())
    Acceptor.join();
  // Admissions are closed; wake the workers so they drain the queue and
  // observe Stopping once it is empty.
  QueueCv.notify_all();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  WorkerThreads.clear();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!SOpts.SocketPath.empty())
    ::unlink(SOpts.SocketPath.c_str());
  Running.store(false, std::memory_order_release);
}

ServerStats CompileServer::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counts;
}

obs::CounterSet CompileServer::counters() const {
  std::lock_guard<std::mutex> L(Mu);
  return Aggregated;
}

std::string CompileServer::statsJson() const {
  ServerStats S;
  PipelineStats P;
  obs::CounterSet C;
  size_t Depth;
  {
    std::lock_guard<std::mutex> L(Mu);
    S = Counts;
    P.addScalars(PipelineTotals);
    C = Aggregated;
    Depth = Queue.size();
  }
  std::ostringstream OS;
  OS << "{\n  \"schema\": \"gis-serve-stats-v2\",\n  \"serve\": {"
     << "\n    \"accepted\": " << S.Accepted
     << ",\n    \"completed\": " << S.Completed
     << ",\n    \"shed\": " << S.Shed
     << ",\n    \"timeouts\": " << S.TimedOut
     << ",\n    \"errors\": " << S.Errors
     << ",\n    \"queue_depth\": " << Depth
     << ",\n    \"workers\": " << SOpts.Workers << "\n  },";
  if (Disk) {
    DiskCacheStats D = Disk->stats();
    OS << "\n  \"persist\": {\"degraded\": "
       << (D.Degraded ? "true" : "false") << ", \"disk_hits\": " << D.Hits
       << ", \"disk_misses\": " << D.Misses
       << ", \"inserts\": " << D.Inserts
       << ", \"quarantines\": " << D.Quarantines
       << ", \"write_failures\": " << D.WriteFailures
       << ", \"evictions\": " << D.Evictions << "},";
  }
  // The pipeline totals keep no per-run records, so the writer leaves out
  // their counts.
  OS << "\n  \"pipeline\": ";
  obs::writePipelineJson(OS, P, "    ", /*WithRecordCounts=*/false);
  OS << ",\n  \"counters\": ";
  obs::writeCountersJson(OS, C, "    ");
  OS << "\n}\n";
  return OS.str();
}

void CompileServer::acceptLoop() {
  while (true) {
    if (Stopping.load(std::memory_order_acquire))
      return;
    pollfd P{};
    P.fd = ListenFd;
    P.events = POLLIN;
    int N = ::poll(&P, 1, 100); // 100ms tick bounds the stop latency
    if (N <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    setSocketTimeouts(Fd);
    bool Admit;
    {
      std::lock_guard<std::mutex> L(Mu);
      Admit = Queue.size() < SOpts.QueueDepth &&
              !Stopping.load(std::memory_order_acquire);
      if (Admit) {
        Queue.push_back(Pending{Fd, Clock::now()});
        ++Counts.Accepted;
      } else {
        ++Counts.Shed;
      }
    }
    if (Admit) {
      QueueCv.notify_one();
    } else {
      // Load shedding: answer immediately so the client backs off instead
      // of hanging; the small frame fits any socket buffer.
      writeAll(Fd, formatShedResponse(SOpts.ShedRetryMs));
      ::close(Fd);
    }
  }
}

void CompileServer::workerLoop() {
  // One engine per worker over the shared tiers: the fingerprints are
  // computed once, and every worker's results land in the same caches.
  EngineOptions EOpts;
  EOpts.Jobs = 1;
  EOpts.SharedCache = &MemCache;
  EOpts.SharedDisk = Disk.get();
  CompileEngine Engine(MD, Opts, EOpts);

  while (true) {
    Pending Job;
    {
      std::unique_lock<std::mutex> L(Mu);
      QueueCv.wait(L, [this] {
        return !Queue.empty() || Stopping.load(std::memory_order_acquire);
      });
      if (Queue.empty())
        return; // stopping and fully drained
      Job = Queue.front();
      Queue.pop_front();
    }
    serveConnection(Job.Fd, Job.Admitted, Engine);
  }
}

void CompileServer::serveConnection(int Fd, Clock::time_point Admitted,
                                    CompileEngine &Engine) {
  std::string Header, BodyStart;
  if (!readLine(Fd, Header, BodyStart)) {
    std::lock_guard<std::mutex> L(Mu);
    ++Counts.Errors;
    ::close(Fd);
    return;
  }

  // Counters are updated BEFORE the response is written: a client that
  // has seen the reply must be able to observe the matching stats().
  if (Header == "PING") {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.Completed;
    }
    writeAll(Fd, "PONG\n");
    ::close(Fd);
    return;
  }
  if (Header == "STATS") {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.Completed;
    }
    writeAll(Fd, formatOkResponse(0, 0, 0, statsJson()));
    ::close(Fd);
    return;
  }
  if (Header.rfind("COMPILE ", 0) != 0) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.Errors;
    }
    writeAll(Fd, formatErrResponse("bad-request",
                                   "unknown request: " + Header));
    ::close(Fd);
    return;
  }

  CompileRequest Req;
  if (Status S = parseCompileRequest(Fd, Header.substr(8), BodyStart, Req);
      !S.isOk()) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.Errors;
    }
    writeAll(Fd, formatErrResponse(errorCodeName(S.code()), S.message()));
    ::close(Fd);
    return;
  }

  // The deadline bounds admission-to-start, measured from accept time: a
  // request that waited out its budget in the queue gets TIMEOUT, not a
  // late answer the client already gave up on.
  unsigned DeadlineMs =
      Req.DeadlineMs ? Req.DeadlineMs : SOpts.DefaultDeadlineMs;
  auto WaitedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - Admitted)
                      .count();
  if (static_cast<uint64_t>(WaitedMs) > DeadlineMs) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.TimedOut;
    }
    writeAll(Fd, formatTimeoutResponse());
    ::close(Fd);
    return;
  }

  if (SOpts.TestHoldMs)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(SOpts.TestHoldMs));

  // Front-end the source.
  std::unique_ptr<Module> M;
  std::string FrontendError;
  if (Req.IsAsm) {
    ParseResult R = parseModule(Req.Source);
    if (!R.ok()) {
      FrontendError = formatString("line %u: %s", R.Line, R.Error.c_str());
    } else {
      std::vector<std::string> Problems = verifyModule(*R.M);
      if (!Problems.empty())
        FrontendError = "verify: " + Problems.front();
      else
        M = std::move(R.M);
    }
  } else {
    CompileResult R = compileMiniC(Req.Source);
    if (!R.ok())
      FrontendError = formatString("line %u: %s", R.Line, R.Error.c_str());
    else
      M = std::move(R.M);
  }
  if (!M) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counts.Errors;
    }
    writeAll(Fd, formatErrResponse("frontend", FrontendError));
    ::close(Fd);
    return;
  }

  EngineReport Report =
      Engine.compileBatch({BatchItem{M.get(), Req.Name}});

  std::string Body = moduleToString(*M);
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counts.Completed;
    PipelineTotals.addScalars(Report.Aggregate);
    Aggregated += Report.Aggregate.Counters;
  }
  writeAll(Fd, formatOkResponse(Report.CacheHits - Report.DiskHits,
                                Report.DiskHits, Report.CacheMisses,
                                Body));
  ::close(Fd);
}
