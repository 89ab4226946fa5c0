//===- gisbench/src/Serve.cpp - serve_mixed and the daemon child ----------===//
//
// serve_mixed is a closed loop of two client connections against a
// CompileServer with two workers, which the benchmark runs as a child
// process (`gisbench daemon`) on a private socket and cache directory in
// the run's work directory.  Set-up publishes a hot set of sources to the
// disk tier; the memory tier holds half of it, so repeats split between
// memory and disk hits.  A seeded share of requests are new sources that
// miss, get scheduled and are published.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/ScheduleCache.h"
#include "frontend/CodeGen.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Counters.h"
#include "persist/Client.h"
#include "persist/DiskCache.h"
#include "persist/Server.h"
#include "support/Hashing.h"
#include "support/RNG.h"
#include "workloads/RandomProgram.h"

#include <cstdio>
#include <filesystem>
#include <poll.h>
#include <sstream>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace gis;
using namespace gis::persist;

namespace gisbench {

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned MissPercent = 4;

RandomProgramOptions programOptions() {
  RandomProgramOptions RO;
  RO.MaxLoopTrip = 4; // as in cold_batch: a cheap output check
  return RO;
}

//===----------------------------------------------------------------------===
// The daemon child process
//===----------------------------------------------------------------------===

/// A `gisbench daemon` child.  Stopped (and waited for) on destruction.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Socket, const std::string &CacheDir,
             size_t Capacity, std::string &Err) {
    int In[2], Out[2];
    if (::pipe(In) != 0 || ::pipe(Out) != 0) {
      Err = "pipe failed";
      return false;
    }
    std::string Cap = std::to_string(Capacity);
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      ::dup2(In[0], 0);
      ::dup2(Out[1], 1);
      ::close(In[0]);
      ::close(In[1]);
      ::close(Out[0]);
      ::close(Out[1]);
      ::execl("/proc/self/exe", "gisbench", "daemon", Socket.c_str(),
              CacheDir.c_str(), Cap.c_str(), static_cast<char *>(nullptr));
      ::_exit(127);
    }
    ::close(In[0]);
    ::close(Out[1]);
    ToChild = In[1];
    FromChild = Out[0];
    std::string Line = readLine(30000);
    if (Line != "ready") {
      Err = "daemon did not start: " + Line;
      stop();
      return false;
    }
    return true;
  }

  int pid() const { return Pid; }

  /// Closes the child's stdin (it drains and exits) and waits for it.
  void stop() {
    if (ToChild >= 0) {
      ::close(ToChild);
      ToChild = -1;
    }
    if (Pid > 0) {
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
    }
    if (FromChild >= 0) {
      ::close(FromChild);
      FromChild = -1;
    }
  }

private:
  std::string readLine(int TimeoutMs) {
    std::string Line;
    char C;
    while (true) {
      pollfd P{FromChild, POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0)
        return Line + "<timeout>";
      if (::read(FromChild, &C, 1) != 1)
        return Line + "<eof>";
      if (C == '\n')
        return Line;
      Line += C;
    }
  }

  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
};

//===----------------------------------------------------------------------===
// Request streams
//===----------------------------------------------------------------------===

/// One client's seeded request stream; the traced run's in-process replay
/// regenerates it.
class Stream {
public:
  Stream(uint64_t Seed, unsigned Client, unsigned Hot)
      : Seed(Seed), Tag(10 + Client), Hot(Hot), R(mixSeed(Seed, Tag, ~0ull)) {}

  /// Returns the hot-set index, or -1 with \p Source set to a new source.
  int next(std::string &Source) {
    if (R.nextBelow(100) < MissPercent) {
      Source = generateRandomMiniC(mixSeed(Seed, Tag, NextMiss++),
                                   programOptions());
      return -1;
    }
    return static_cast<int>(R.nextBelow(Hot));
  }

private:
  uint64_t Seed;
  uint64_t Tag;
  unsigned Hot;
  RNG R;
  uint64_t NextMiss = 0;
};

/// What one client saw in one window.
struct ClientLog {
  struct Rec {
    int Hot = -1;          ///< hot index, or -1 for a new source
    uint32_t Miss = 0;     ///< index into MissSources when Hot < 0
    double Ms = 0;
    double Done = 0; ///< completion, seconds into the window
    bool Ok = false;
    bool Traced = false;
    uint64_t Hash = 0;
    unsigned Attempts = 0;
  };
  std::vector<Rec> Recs;
  std::vector<std::string> MissSources, MissReplies;
  std::map<int, std::string> HotReplies; ///< first reply per hot source
  uint64_t MemHits = 0, DiskHits = 0, Misses = 0;
  std::vector<std::string> Errors;
};

ClientLog runClient(const std::string &Socket, const Stream &Proto,
                    const std::vector<std::string> &Hot,
                    const std::atomic<bool> &Stop, Clock::time_point Start,
                    Tracer *T) {
  ClientLog Log;
  Stream S = Proto;
  ClientOptions CO;
  CO.SocketPath = Socket;
  for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I) {
    ClientLog::Rec Rec;
    std::string Fresh;
    Rec.Hot = S.next(Fresh);
    CompileRequest Req;
    Req.Name = Rec.Hot >= 0 ? "hot" + std::to_string(Rec.Hot)
                            : "new" + std::to_string(Log.MissSources.size());
    Req.Source = Rec.Hot >= 0 ? Hot[Rec.Hot] : Fresh;
    Clock::time_point T0 = Clock::now();
    CompileResponse Resp;
    // The traced run records every other request, so traced and untraced
    // requests share the host's conditions (bench.trace_overhead).
    Rec.Traced = T && I % 2 == 1;
    {
      Scope Span(Rec.Traced ? T : nullptr, "request", I);
      Resp = compileOverSocket(CO, Req);
    }
    Rec.Ms = 1e3 * secondsSince(T0);
    Rec.Done = secondsSince(Start);
    Rec.Ok = Resp.Kind == ResponseKind::Ok;
    Rec.Attempts = Resp.Attempts;
    if (!Rec.Ok) {
      if (Log.Errors.size() < 4)
        Log.Errors.push_back(Req.Name + ": daemon answered " + Resp.Text);
    } else {
      HashBuilder H;
      H.addString(Resp.Text);
      Rec.Hash = H.hash();
      Log.MemHits += Resp.MemHits;
      Log.DiskHits += Resp.DiskHits;
      Log.Misses += Resp.Misses;
      if (Rec.Hot >= 0 && !Log.HotReplies.count(Rec.Hot))
        Log.HotReplies[Rec.Hot] = Resp.Text;
    }
    if (Rec.Hot < 0) {
      Rec.Miss = static_cast<uint32_t>(Log.MissSources.size());
      Log.MissSources.push_back(std::move(Fresh));
      Log.MissReplies.push_back(Rec.Ok ? Resp.Text : std::string());
    }
    Log.Recs.push_back(Rec);
  }
  return Log;
}

/// Runs both clients for \p Seconds while this thread samples the host's
/// speed into \p Speed; returns the window's wall time.
double runWindow(const std::string &Socket, uint64_t Seed,
                 const std::vector<std::string> &Hot, double Seconds,
                 std::vector<ClientLog> &Logs,
                 std::vector<std::unique_ptr<Tracer>> *Tracers,
                 HostSpeed &Speed, Clock::time_point Start) {
  std::atomic<bool> Stop{false};
  Logs.assign(Clients, ClientLog());
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    Tracer *T = Tracers ? (*Tracers)[C].get() : nullptr;
    Threads.emplace_back([&, C, T] {
      Logs[C] = runClient(Socket, Stream(Seed, C, Hot.size()), Hot, Stop,
                          Start, T);
    });
  }
  while (secondsSince(Start) < Seconds) {
    Speed.sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

uint64_t daemonRollbacks(const std::string &Socket) {
  std::string Json;
  if (!fetchServerStats(Socket, Json).isOk())
    return 0;
  std::string Key = "\"" + std::string(obs::counterKey(obs::Rollbacks)) +
                    "\": ";
  size_t P = Json.find(Key);
  return P == std::string::npos
             ? 0
             : std::strtoull(Json.c_str() + P + Key.size(), nullptr, 10);
}

std::string filesystemName(const std::string &Path) {
  struct statfs S;
  if (::statfs(Path.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(S.f_type));
    return Buf;
  }
  }
}

/// Sends every hot source once through both connections, publishing
/// their schedules to the disk tier.
bool prepopulate(const std::string &Socket,
                 const std::vector<std::string> &Hot, std::string &Err) {
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientOptions CO;
      CO.SocketPath = Socket;
      for (size_t K = C; K < Hot.size(); K += Clients) {
        CompileRequest Req;
        Req.Name = "hot" + std::to_string(K);
        Req.Source = Hot[K];
        if (compileOverSocket(CO, Req).Kind != ResponseKind::Ok)
          Ok.store(false);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (!Ok)
    Err = "pre-population request failed";
  return Ok;
}

struct ServeSetup {
  std::vector<std::string> Hot;
  size_t Capacity = 0;
  std::string Socket = "gisbench.sock";
  std::string CacheDir = "serve-cache";
  Daemon D;
};

/// The in-process replay of the traced stream, through the calls the
/// daemon makes: compileMiniC, scheduleCacheKey, ScheduleCache::lookup,
/// DiskScheduleCache::lookup, schedulePipeline, the inserts, printModule.
struct Replay {
  double Wall = 0;
  uint64_t Requests = 0, Funcs = 0, FrontendInstrs = 0;
  uint64_t MemLookups = 0, MemHits = 0, DiskLookups = 0, DiskHits = 0;
  uint64_t Scheduled = 0;
  PipelineStats SchedStats;
  std::vector<double> ServiceUs; ///< per replayed request, in stream order
  std::vector<std::pair<unsigned, unsigned>> Order; ///< (client, index)
  std::vector<std::string> MissSources;
  std::vector<std::unique_ptr<Module>> MissOutputs;
  ScheduleCacheStats Mem;
  DiskCacheStats Disk;
};

Replay replayStream(uint64_t Seed, const std::vector<std::string> &Hot,
                    size_t Capacity, unsigned PerClient, Tracer &T) {
  Replay R;
  const MachineDescription MD = MachineDescription::rs6k();
  const PipelineOptions Opts;
  const uint64_t MachineFp = fingerprintMachine(MD);
  const uint64_t OptionsFp = fingerprintOptions(Opts);
  std::filesystem::remove_all("replay-cache");
  ScheduleCache Mem(Capacity);
  DiskScheduleCache Disk("replay-cache");
  Disk.open();
  // The same tier state as the daemon's set-up: the hot set published.
  for (const std::string &Src : Hot) {
    auto M = compileMiniCOrDie(Src);
    for (auto &F : M->functions()) {
      Key128 K = scheduleCacheKey(*F, MachineFp, OptionsFp);
      PipelineStats S = schedulePipeline(*F, MD, Opts);
      Mem.insert(K, *F, S);
      Disk.insert(K, *F, S);
    }
  }
  const ScheduleCacheStats MemBefore = Mem.stats();
  const DiskCacheStats DiskBefore = Disk.stats();

  std::vector<Stream> Streams;
  for (unsigned C = 0; C != Clients; ++C)
    Streams.emplace_back(Seed, C, Hot.size());
  CountAllocations.store(true);
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I != PerClient; ++I)
    for (unsigned C = 0; C != Clients; ++C) {
      std::string Fresh;
      int HotIdx = Streams[C].next(Fresh);
      const std::string &Src = HotIdx >= 0 ? Hot[HotIdx] : Fresh;
      const uint64_t Id = R.Requests++;
      Clock::time_point T0 = Clock::now();
      {
        Scope Req(&T, "request", Id);
        CompileResult CR;
        {
          Scope S(&T, "frontend", Id);
          CR = compileMiniC(Src);
        }
        if (!CR.ok())
          continue;
        R.FrontendInstrs += staticInstrs(*CR.M);
        for (auto &F : CR.M->functions()) {
          PipelineStats Stats;
          Key128 K;
          {
            Scope S(&T, "engine.key", Id);
            K = scheduleCacheKey(*F, MachineFp, OptionsFp);
          }
          ++R.MemLookups;
          bool Hit;
          {
            Scope S(&T, "engine.mem_lookup", Id);
            Hit = Mem.lookup(K, *F, Stats);
          }
          if (Hit) {
            ++R.MemHits;
            continue;
          }
          ++R.DiskLookups;
          {
            Scope S(&T, "persist.disk_lookup", Id);
            Hit = Disk.lookup(K, *F, Stats);
          }
          if (Hit) {
            ++R.DiskHits;
            Scope S(&T, "engine.mem_insert", Id);
            Mem.insert(K, *F, Stats);
            continue;
          }
          {
            Scope S(&T, "sched", Id);
            Stats = schedulePipeline(*F, MD, Opts);
          }
          ++R.Scheduled;
          R.SchedStats += Stats;
          {
            Scope S(&T, "engine.mem_insert", Id);
            Mem.insert(K, *F, Stats);
          }
          Scope S(&T, "persist.disk_insert", Id);
          Disk.insert(K, *F, Stats);
        }
        R.Funcs += CR.M->functions().size();
        std::ostringstream Body;
        {
          Scope S(&T, "ir.print", Id);
          printModule(*CR.M, Body);
        }
        if (HotIdx < 0) {
          R.MissSources.push_back(Src);
          R.MissOutputs.push_back(std::move(CR.M));
        }
      }
      R.ServiceUs.push_back(1e6 * secondsSince(T0));
      R.Order.emplace_back(C, I);
    }
  R.Wall = secondsSince(Start);
  CountAllocations.store(false);
  R.Mem = Mem.stats();
  R.Mem.Hits -= MemBefore.Hits;
  R.Mem.Misses -= MemBefore.Misses;
  R.Mem.Evictions -= MemBefore.Evictions;
  R.Disk = Disk.stats();
  R.Disk.Hits -= DiskBefore.Hits;
  R.Disk.Misses -= DiskBefore.Misses;
  return R;
}

double usPer(const std::map<std::string, SpanTotals> &Totals,
             const char *Name, uint64_t Den) {
  auto It = Totals.find(Name);
  if (It == Totals.end() || !Den)
    return 0;
  return 1e6 * It->second.SelfSeconds / Den;
}

double callUs(const std::map<std::string, SpanTotals> &Totals,
              const char *Name) {
  auto It = Totals.find(Name);
  return It == Totals.end() ? 0 : usPer(Totals, Name, It->second.Count);
}

} // namespace

int daemonMain(int Argc, char **Argv) {
  if (Argc != 5) {
    std::fprintf(stderr, "usage: gisbench daemon SOCKET CACHE_DIR CAPACITY\n");
    return 2;
  }
  ServerOptions SO;
  SO.SocketPath = Argv[2];
  SO.CacheDir = Argv[3];
  SO.CacheCapacity = std::strtoull(Argv[4], nullptr, 10);
  SO.Workers = 2;
  // gisc --serve's pipeline: the defaults (speculative, -O0).
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions(), SO);
  if (Status S = Server.start(); !S.isOk()) {
    std::printf("error: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("ready\n");
  std::fflush(stdout);
  char Buf[256];
  while (::read(0, Buf, sizeof(Buf)) > 0) {
  }
  Server.drainAndJoin();
  return 0;
}

Outcome runServeMixed(const RunOptions &O) {
  Outcome Out;
  const unsigned HotN = O.Short ? 12 : 96;
  const MachineDescription MD = MachineDescription::rs6k();
  ServeSetup St;
  // Memory tier: half the hot set's function entries (3 per module).
  St.Capacity = HotN * (programOptions().NumHelpers + 1) / 2;

  std::string Err;
  timeSetup(Out, 3, [&] {
    St.D.stop();
    St.Hot.clear();
    for (unsigned K = 0; K != HotN; ++K)
      St.Hot.push_back(generateRandomMiniC(mixSeed(O.Seed, 2, K),
                                           programOptions()));
    std::filesystem::remove_all(St.CacheDir);
    std::filesystem::remove(St.Socket);
    if (St.D.start(St.Socket, St.CacheDir, St.Capacity, Err))
      prepopulate(St.Socket, St.Hot, Err);
  });
  if (!Err.empty()) {
    Out.fail("set-up: " + Err);
    Out.Attempted = Out.Failed = 1;
    return Out;
  }
  Out.Notes["cache_dir_fs"] = filesystemName(".");
  {
    HashBuilder H;
    for (const std::string &S : St.Hot)
      H.addString(S);
    H.addU64(MissPercent);
    Out.InputHash = H.hash();
  }

  const uint64_t RollbacksBefore = daemonRollbacks(St.Socket);
  std::vector<ClientLog> Logs;
  std::vector<std::unique_ptr<Tracer>> ClientTracers;
  if (O.Trace)
    for (unsigned C = 0; C != Clients; ++C)
      ClientTracers.push_back(std::make_unique<Tracer>(10 + C));
  Clock::time_point Start = Clock::now();
  HostSpeed Speed(Start);
  const double Wall = runWindow(St.Socket, O.Seed, St.Hot, O.Seconds, Logs,
                                O.Trace ? &ClientTracers : nullptr, Speed,
                                Start);
  const double Rss = peakRssMiB(St.D.pid());
  const uint64_t Rollbacks = daemonRollbacks(St.Socket) - RollbacksBefore;
  St.D.stop();

  // Latency and throughput of the window, scaled by HostSpeed (sampled by
  // this thread every 0.1 s while the clients ran).  A request's latency
  // is scaled by the speed at its midpoint; the window's duration by the
  // speed integrated over it.
  const unsigned FuncsPerModule = programOptions().NumHelpers + 1;
  Samples Lat, RawLat, Attempts;
  uint64_t Ok = 0, MemHits = 0, DiskHits = 0, Misses = 0;
  for (const ClientLog &L : Logs) {
    for (const ClientLog::Rec &R : L.Recs) {
      RawLat.add(R.Ms);
      Lat.add(R.Ms * Speed.factorAt(R.Done - R.Ms / 2000));
      Ok += R.Ok;
    }
    MemHits += L.MemHits;
    DiskHits += L.DiskHits;
    Misses += L.Misses;
  }
  double ScaledWall = 0;
  for (unsigned K = 0; K != 100; ++K)
    ScaledWall += Wall / 100 * Speed.factorAt((K + 0.5) * Wall / 100);
  const double RawFps = Ok * FuncsPerModule / Wall;

  // Output check: every reply for one source byte-identical, and one reply
  // per source parsed back and compared with the unscheduled source.
  std::vector<Program> Programs;
  std::vector<std::unique_ptr<Module>> Parsed;
  std::vector<bool> Price;
  std::map<int, uint64_t> HotHash;
  std::vector<const ClientLog *> All;
  for (const ClientLog &L : Logs)
    All.push_back(&L);
  std::map<const ClientLog *, size_t> MissBase;
  std::vector<bool> BadHot(HotN, false);
  uint64_t Attempted = 0, Failed = 0;
  for (const ClientLog *L : All)
    for (const ClientLog::Rec &R : L->Recs)
      if (R.Ok && R.Hot >= 0) {
        auto [It, New] = HotHash.emplace(R.Hot, R.Hash);
        if (!New && It->second != R.Hash && !BadHot[R.Hot]) {
          BadHot[R.Hot] = true;
          Out.fail("hot" + std::to_string(R.Hot) +
                   ": replies differ between requests");
        }
      }
  auto AddProgram = [&](const std::string &Name, const std::string &Src,
                        const std::string &Reply, bool DoPrice) {
    Program P;
    P.Name = Name;
    P.Source = Src;
    ParseResult Parse = parseModule(Reply);
    if (!Parse.ok())
      Out.fail(Name + ": reply does not parse: " + Parse.Error);
    Programs.push_back(std::move(P));
    Parsed.push_back(std::move(Parse.M));
    Price.push_back(DoPrice);
  };
  std::vector<std::string> HotReply(HotN);
  for (const ClientLog *L : All)
    for (const auto &[K, Text] : L->HotReplies)
      if (HotReply[K].empty())
        HotReply[K] = Text;
  for (unsigned K = 0; K != HotN; ++K)
    AddProgram("hot" + std::to_string(K), St.Hot[K], HotReply[K], true);
  for (const ClientLog *L : All) {
    MissBase[L] = Programs.size();
    for (size_t J = 0; J != L->MissSources.size(); ++J)
      AddProgram("new" + std::to_string(J), L->MissSources[J],
                 L->MissReplies[J], false);
  }
  if (O.Corrupt && Parsed[0])
    corruptProgram(*Parsed[0], "main");
  std::vector<const Module *> Ptrs;
  for (const auto &M : Parsed)
    Ptrs.push_back(M.get());
  Tracer CheckT(1);
  CheckTotals Tot =
      checkAll(Out, Programs, Ptrs, Price, MD, O.Trace ? &CheckT : nullptr);
  for (const ClientLog *L : All) {
    for (const std::string &E : L->Errors)
      Out.fail(E);
    for (const ClientLog::Rec &R : L->Recs) {
      ++Attempted;
      size_t Prog = R.Hot >= 0 ? static_cast<size_t>(R.Hot)
                               : MissBase[L] + R.Miss;
      bool Bad = !R.Ok || !Tot.Ok[Prog] || (R.Hot >= 0 && BadHot[R.Hot]);
      Failed += Bad;
    }
  }
  // A rollback repairs a schedule the verifier rejected, so the reply is
  // still correct: reported, not failed (see RollbackLog in Compile.cpp).
  if (Rollbacks)
    Out.Notes["rollbacks"] =
        std::to_string(Rollbacks) + " transaction(s) rolled back in the daemon";
  Out.Attempted = Attempted;
  Out.Failed = Failed;
  addFailedRatio(Out);
  {
    // New sources vary with how many requests fit in the window; only the
    // hot set's replies are a deterministic function of the seed.
    HashBuilder H;
    for (const std::string &Reply : HotReply)
      H.addString(Reply);
    Out.OutputHash = H.hash();
  }
  addQualityMetrics(Out, Tot.Rows);

  setMetric(Out.EndToEnd, "funcs_per_s", Ok * FuncsPerModule / ScaledWall,
            "funcs/s");
  setMetric(Out.EndToEnd, "latency_ms_p50", Lat.median(), "ms");
  setMetric(Out.EndToEnd, "latency_ms_p99", Lat.percentile(99), "ms");
  Out.Notes["raw_funcs_per_s"] = std::to_string(RawFps);
  Out.Notes["reference_task_ms"] = std::to_string(1e3 * Speed.medianRef());
  Out.Timings["latency_ms_raw"] = summarize(RawLat, "ms");
  setMetric(Out.EndToEnd, "peak_rss_mb", Rss, "MiB");
  Out.Timings["latency_ms"] = summarize(Lat, "ms");
  Out.Notes["window_s"] = std::to_string(Wall);
  Out.Notes["reply_tiers"] = "mem_hits=" + std::to_string(MemHits) +
                             " disk_hits=" + std::to_string(DiskHits) +
                             " misses=" + std::to_string(Misses);
  if (!O.Trace)
    return Out;

  // Traced run: client round trips, then the in-process replay.
  Samples RoundTrip, TracedMs, UntracedMs;
  for (const ClientLog &L : Logs)
    for (const ClientLog::Rec &R : L.Recs) {
      RoundTrip.add(1e3 * R.Ms);
      Attempts.add(R.Attempts);
      (R.Traced ? TracedMs : UntracedMs).add(R.Ms);
    }
  Out.Timings["round_trip_us"] = summarize(RoundTrip, "us");

  const unsigned PerClient = O.Short ? 40 : 300;
  Tracer ReplayT(0);
  Replay R = replayStream(O.Seed, St.Hot, St.Capacity, PerClient, ReplayT);
  std::map<std::string, SpanTotals> Totals = aggregateSpans({&ReplayT});

  double SelfSum = 0;
  for (const auto &[Name, T] : Totals)
    SelfSum += T.SelfSeconds;
  Out.Identities["self_seconds_sum"] = SelfSum;
  Out.Identities["traced_wall_s"] = R.Wall;
  Out.Identities["mem_lookups"] = R.MemLookups;
  Out.Identities["mem_hits"] = R.Mem.Hits;
  Out.Identities["mem_misses"] = R.Mem.Misses;
  Out.Identities["disk_hits"] = R.Disk.Hits;
  Out.Identities["disk_lookups"] = R.DiskLookups;

  // persist.wait_us: the client round trip minus the in-process service
  // time of the same request (socket, framing and daemon queue).
  double WaitSum = 0;
  uint64_t WaitN = 0;
  for (size_t K = 0; K != R.Order.size(); ++K) {
    auto [C, I] = R.Order[K];
    if (I < Logs[C].Recs.size()) {
      WaitSum += 1e3 * Logs[C].Recs[I].Ms - R.ServiceUs[K];
      ++WaitN;
    }
  }

  auto &L = Out.PerLayer;
  const SpanTotals &Fe = Totals["frontend"];
  setMetric(L, "frontend.us_per_func", usPer(Totals, "frontend", R.Funcs),
            "us");
  setMetric(L, "frontend.allocs_per_func", ratio(Fe.SelfAllocs, R.Funcs),
            "count");
  setMetric(L, "frontend.ir_instrs_per_func",
            ratio(R.FrontendInstrs, R.Funcs), "instrs");
  addSchedMetrics(Out, R.SchedStats, Totals["sched"], R.Scheduled);
  setMetric(L, "ir.print_us_per_func", usPer(Totals, "ir.print", R.Funcs),
            "us");
  setMetric(L, "engine.key_us", callUs(Totals, "engine.key"), "us");
  setMetric(L, "engine.mem_lookup_us", callUs(Totals, "engine.mem_lookup"),
            "us");
  setMetric(L, "engine.mem_hit_ratio", ratio(R.MemHits, R.MemLookups),
            "ratio");
  setMetric(L, "engine.mem_evictions", R.Mem.Evictions, "count");
  setMetric(L, "persist.disk_lookup_us",
            callUs(Totals, "persist.disk_lookup"), "us");
  setMetric(L, "persist.disk_hit_ratio", ratio(R.DiskHits, R.DiskLookups),
            "ratio");
  setMetric(L, "persist.disk_insert_us",
            callUs(Totals, "persist.disk_insert"), "us");
  setMetric(L, "persist.quarantines", R.Disk.Quarantines, "count");
  setMetric(L, "persist.write_failures", R.Disk.WriteFailures, "count");
  setMetric(L, "persist.degraded", R.Disk.Degraded ? 1 : 0, "flag");
  setMetric(L, "persist.round_trip_us", RoundTrip.mean(), "us");
  setMetric(L, "persist.wait_us", WaitN ? WaitSum / WaitN : 0, "us");
  setMetric(L, "persist.attempts_per_request", Attempts.mean(), "count");
  // A closed loop's throughput is the inverse of its mean latency.
  setMetric(L, "bench.trace_overhead", 1 - UntracedMs.mean() / TracedMs.mean(),
            "ratio");
  auto &D = Out.Deterministic;
  D["frontend.ir_instrs_per_func"] = ratio(R.FrontendInstrs, R.Funcs);
  D["frontend.allocs_per_func"] = ratio(Fe.SelfAllocs, R.Funcs);
  D["engine.mem_hit_ratio"] = ratio(R.MemHits, R.MemLookups);
  D["engine.mem_evictions"] = R.Mem.Evictions;
  D["persist.disk_hit_ratio"] = ratio(R.DiskHits, R.DiskLookups);
  D["persist.quarantines"] = R.Disk.Quarantines;
  D["persist.write_failures"] = R.Disk.WriteFailures;

  // The layers schedulePipeline calls, probed on the replay's new sources.
  std::vector<std::unique_ptr<Module>> Fresh;
  std::vector<const Function *> ProbeFuncs;
  std::vector<const Module *> Scheduled;
  for (const std::string &Src : R.MissSources)
    Fresh.push_back(compileMiniCOrDie(Src));
  for (const auto &M : Fresh)
    for (const auto &F : M->functions())
      ProbeFuncs.push_back(F.get());
  for (const auto &M : R.MissOutputs)
    Scheduled.push_back(M.get());
  CountAllocations.store(true);
  probeLayers(Out, ProbeFuncs, Scheduled, MD, PipelineOptions(), R.SchedStats,
              R.Scheduled, /*ProbePrint=*/false);
  CountAllocations.store(false);
  addCheckMetrics(Out, aggregateSpans({&CheckT}), Tot);

  std::vector<const Tracer *> Ts = {&ReplayT, &CheckT};
  for (const auto &T : ClientTracers)
    Ts.push_back(T.get());
  if (!writeSpans(O.SpansPath, Ts))
    Out.fail("cannot write spans to " + O.SpansPath);
  return Out;
}

} // namespace gisbench
