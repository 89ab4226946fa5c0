//===- tests/serve_test.cpp - Compile-daemon tests -------------------------===//
//
// The fault-tolerant serving tier (persist/Server.h, persist/Client.h):
// compiles over the socket match local compiles bit for bit, the bounded
// admission queue sheds instead of backlogging, queued requests past
// their deadline get TIMEOUT instead of a late answer, a drain answers
// every admitted request, and the client's backoff handles both shed and
// connect-refused without bothering the caller.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileEngine.h"
#include "frontend/CodeGen.h"
#include "ir/Printer.h"
#include "persist/Client.h"
#include "persist/Protocol.h"
#include "persist/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace gis;
using namespace gis::persist;

namespace {

struct TempDir {
  std::string Path;
  explicit TempDir(const char *Tag) {
    std::string Template = std::string(Tag) + "-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    const char *P = ::mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Path = P ? P : Template;
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

const char *kSource =
    "int main() { int i = 0; int s = 0; while (i < 5) { s = s + 2 * i; "
    "i = i + 1; } print(s); return s; }";

CompileRequest makeRequest(const std::string &Source,
                           unsigned DeadlineMs = 10000) {
  CompileRequest Req;
  Req.IsAsm = false;
  Req.DeadlineMs = DeadlineMs;
  Req.Name = "test.c";
  Req.Source = Source;
  return Req;
}

ClientOptions clientFor(const CompileServer &Server, unsigned Retries = 2) {
  ClientOptions CO;
  CO.SocketPath = Server.socketPath();
  CO.Retries = Retries;
  CO.BackoffBaseMs = 5;
  CO.BackoffMaxMs = 100;
  return CO;
}

/// What a local, daemon-free compile of \p Source produces.
std::string localSchedule(const std::string &Source) {
  auto M = compileMiniCOrDie(Source);
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{});
  Engine.compile(*M);
  return moduleToString(*M);
}

//===----------------------------------------------------------------------===
// Framing
//===----------------------------------------------------------------------===

// readLine reads a header in chunks: what it reads past the newline is the
// start of the body, and readExact takes it before reading the socket.
// The header bound stays 4096 bytes, newline included.
TEST(ServeTest, HeaderReadAheadFeedsTheBody) {
  // Each frame on its own connection, as the protocol sends them.
  std::vector<std::thread> Writers;
  auto Connection = [&Writers](std::vector<std::string> Writes) {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Writers.emplace_back([Fd = Fds[1], Writes] {
      for (const std::string &W : Writes)
        writeAll(Fd, W);
      ::close(Fd);
    });
    return Fds[0];
  };
  std::string Body(10000, 'x');
  Body[0] = 'a';
  Body.back() = 'z';
  int Fd = Connection({"OK 0 0 1 10000\n" + Body.substr(0, 100),
                       Body.substr(100)});
  std::string Line, Rest, Got;
  ASSERT_TRUE(readLine(Fd, Line, Rest));
  EXPECT_EQ(Line, "OK 0 0 1 10000");
  ASSERT_TRUE(readExact(Fd, Body.size(), Got, Rest));
  EXPECT_EQ(Got, Body);
  ::close(Fd);

  // A 4095-byte line fits the bound; one more byte does not.
  Fd = Connection({std::string(4095, 'h') + "\nbody"});
  ASSERT_TRUE(readLine(Fd, Line, Rest));
  EXPECT_EQ(Line, std::string(4095, 'h'));
  ::close(Fd);
  Fd = Connection({std::string(4096, 'h') + "\n"});
  EXPECT_FALSE(readLine(Fd, Line, Rest));
  ::close(Fd);
  for (std::thread &W : Writers)
    W.join();
}

//===----------------------------------------------------------------------===
// Basic serving
//===----------------------------------------------------------------------===

TEST(ServeTest, CompileOverSocketMatchesLocalCompile) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  CompileResponse R =
      compileOverSocket(clientFor(Server), makeRequest(kSource));
  ASSERT_EQ(R.Kind, ResponseKind::Ok);
  EXPECT_EQ(R.Text, localSchedule(kSource));
  EXPECT_EQ(R.Misses, 1u);
  EXPECT_EQ(R.Attempts, 1u);

  // Same source again: a warm memory hit in the daemon.
  CompileResponse R2 =
      compileOverSocket(clientFor(Server), makeRequest(kSource));
  ASSERT_EQ(R2.Kind, ResponseKind::Ok);
  EXPECT_EQ(R2.Text, R.Text);
  EXPECT_EQ(R2.MemHits, 1u);

  Server.drainAndJoin();
  ServerStats S = Server.stats();
  EXPECT_EQ(S.Accepted, 2u);
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_EQ(S.Shed, 0u);
  EXPECT_FALSE(std::filesystem::exists(SO.SocketPath)); // unlinked
}

TEST(ServeTest, AsmInputAndFrontendErrors) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  // Round-trip: schedule C locally, ship the printed IR as asm input.
  auto M = compileMiniCOrDie(kSource);
  CompileRequest Req = makeRequest(moduleToString(*M));
  Req.IsAsm = true;
  CompileResponse R = compileOverSocket(clientFor(Server), Req);
  ASSERT_EQ(R.Kind, ResponseKind::Ok);

  CompileResponse Bad = compileOverSocket(
      clientFor(Server), makeRequest("int main( { syntax error"));
  ASSERT_EQ(Bad.Kind, ResponseKind::Error);
  EXPECT_NE(Bad.Text.find("frontend"), std::string::npos);
  EXPECT_EQ(Server.stats().Errors, 1u);

  // Numbers beyond their range, in asm and in mini-C: each request gets
  // ERR frontend with its line, and the daemon keeps serving.
  const char *BadAsm[] = {
      "func f {\nB0:\n  LI r1 = 99999999999999999999\n  RET r1\n}\n",
      "global a[99999999999999999999]\n",
      "func f {\nB0:\n  L r1 = mem[r2 + 9223372036854775808]\n  RET\n}\n",
      "func f {\nB0:\n  LI r300000000 = 1\n  RET\n}\n",
      "func f {\nB0:\n  LI r4294967297 = 1\n  RET\n}\n",
      // The top register index: pre-renaming's fresh register would
      // overflow it, so the parser keeps headroom (Reg::MaxParsedIndex).
      "func main {\nB0:\n  LI r268435455 = 1\n  LI r2 = 1\n  LI r2 = 2\n"
      "  RET r2\n}\n",
  };
  unsigned Errors = 1;
  for (const char *Text : BadAsm) {
    CompileRequest AsmReq = makeRequest(Text);
    AsmReq.IsAsm = true;
    CompileResponse E = compileOverSocket(clientFor(Server), AsmReq);
    ASSERT_EQ(E.Kind, ResponseKind::Error) << Text;
    EXPECT_NE(E.Text.find("frontend: line "), std::string::npos) << E.Text;
    EXPECT_NE(E.Text.find("out of range"), std::string::npos) << E.Text;
    EXPECT_EQ(Server.stats().Errors, ++Errors);
  }
  CompileResponse BadLiteral = compileOverSocket(
      clientFor(Server),
      makeRequest("int main() {\n  return 99999999999999999999;\n}\n"));
  ASSERT_EQ(BadLiteral.Kind, ResponseKind::Error);
  EXPECT_EQ(BadLiteral.Text, "frontend: line 2: integer out of range");
  EXPECT_EQ(Server.stats().Errors, ++Errors);

  // Global arrays whose end overflows the address space, or of negative
  // size: ERR frontend with the declaration's line.
  struct GlobalCase {
    const char *Source;
    bool IsAsm;
    const char *Want;
  };
  const GlobalCase Globals[] = {
      {"global a[4611686018427387904]\nglobal b[1]\n", true,
       "frontend: line 1: global 'a' does not fit in the address space"},
      {"global a[-5]\n", true, "frontend: line 1: negative global size"},
      {"int a[4611686018427387904];\nint b[1];\n"
       "int main() { return 0; }\n",
       false, "frontend: line 1: array 'a' does not fit in the address space"},
  };
  for (const GlobalCase &C : Globals) {
    CompileRequest GReq = makeRequest(C.Source);
    GReq.IsAsm = C.IsAsm;
    CompileResponse E = compileOverSocket(clientFor(Server), GReq);
    ASSERT_EQ(E.Kind, ResponseKind::Error) << C.Source;
    EXPECT_EQ(E.Text, C.Want);
    EXPECT_EQ(Server.stats().Errors, ++Errors);
  }

  CompileResponse Good =
      compileOverSocket(clientFor(Server), makeRequest(kSource));
  ASSERT_EQ(Good.Kind, ResponseKind::Ok);
  EXPECT_EQ(Good.Text, localSchedule(kSource));
}

// Input nested past the front end's bound (20,000 parentheses, a 40 KB
// request, used to overflow a worker's stack and kill the daemon): ERR
// frontend with the line that crosses the bound, and the same daemon then
// serves a valid request.
TEST(ServeTest, DeeplyNestedRequestGetsFrontendError) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  std::string Deep = "int main() {\n  return " + std::string(20000, '(') +
                     "1" + std::string(20000, ')') + ";\n}\n";
  CompileResponse Bad =
      compileOverSocket(clientFor(Server), makeRequest(Deep));
  ASSERT_EQ(Bad.Kind, ResponseKind::Error);
  EXPECT_EQ(Bad.Text, "frontend: line 2: nesting deeper than 256 levels");
  EXPECT_EQ(Server.stats().Errors, 1u);

  CompileResponse Good =
      compileOverSocket(clientFor(Server), makeRequest(kSource));
  ASSERT_EQ(Good.Kind, ResponseKind::Ok);
  EXPECT_EQ(Good.Text, localSchedule(kSource));
}

TEST(ServeTest, SharedDiskTierSurvivesDaemonRestart) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  SO.CacheDir = D.Path + "/cache";
  std::string First;
  {
    CompileServer Server(MachineDescription::rs6k(), PipelineOptions{},
                         SO);
    ASSERT_TRUE(Server.start().isOk());
    CompileResponse R =
        compileOverSocket(clientFor(Server), makeRequest(kSource));
    ASSERT_EQ(R.Kind, ResponseKind::Ok);
    First = R.Text;
    Server.drainAndJoin();
  }
  // New daemon, same directory: the schedule comes back from disk.
  {
    CompileServer Server(MachineDescription::rs6k(), PipelineOptions{},
                         SO);
    ASSERT_TRUE(Server.start().isOk());
    CompileResponse R =
        compileOverSocket(clientFor(Server), makeRequest(kSource));
    ASSERT_EQ(R.Kind, ResponseKind::Ok);
    EXPECT_EQ(R.DiskHits, 1u);
    EXPECT_EQ(R.Text, First);
    Server.drainAndJoin();
  }
}

//===----------------------------------------------------------------------===
// Overload behaviour
//===----------------------------------------------------------------------===

TEST(ServeTest, FullQueueShedsInsteadOfBacklogging) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  SO.Workers = 1;
  SO.QueueDepth = 1;
  SO.TestHoldMs = 250; // pin the single worker so the queue fills
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  std::atomic<unsigned> Ok{0}, Shed{0};
  std::vector<std::thread> Clients;
  for (unsigned K = 0; K != 6; ++K)
    Clients.emplace_back([&] {
      // No retries: a shed must surface, not be retried away.
      CompileResponse R = compileOverSocket(clientFor(Server, 0),
                                            makeRequest(kSource));
      if (R.Kind == ResponseKind::Ok)
        ++Ok;
      else if (R.Kind == ResponseKind::Shed)
        ++Shed;
    });
  for (std::thread &T : Clients)
    T.join();
  Server.drainAndJoin();

  EXPECT_GT(Shed.load(), 0u);
  EXPECT_GT(Ok.load(), 0u);
  EXPECT_EQ(Ok.load() + Shed.load(), 6u);
  ServerStats S = Server.stats();
  EXPECT_EQ(S.Shed, Shed.load());
  EXPECT_EQ(S.Completed, Ok.load());
  // Sheds respond instantly; nothing was dropped without an answer.
  EXPECT_EQ(S.Accepted, Ok.load());
}

TEST(ServeTest, ClientRetriesThroughTransientShed) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  SO.Workers = 1;
  SO.QueueDepth = 1;
  SO.TestHoldMs = 60;
  SO.ShedRetryMs = 10;
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  // Enough retry budget that every client eventually lands.
  std::atomic<unsigned> Ok{0};
  std::mutex FailMu;
  std::vector<std::thread> Clients;
  for (unsigned K = 0; K != 4; ++K)
    Clients.emplace_back([&] {
      CompileResponse R = compileOverSocket(clientFor(Server, 30),
                                            makeRequest(kSource));
      if (R.Kind == ResponseKind::Ok) {
        ++Ok;
      } else {
        std::lock_guard<std::mutex> L(FailMu);
        ADD_FAILURE() << "client got kind=" << static_cast<int>(R.Kind)
                      << " after " << R.Attempts
                      << " attempt(s): " << R.Text;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Ok.load(), 4u);
}

TEST(ServeTest, QueuedPastDeadlineGetsTimeout) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  SO.Workers = 1;
  SO.QueueDepth = 8;
  SO.TestHoldMs = 300; // first request occupies the worker this long
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  std::thread Slow([&] {
    compileOverSocket(clientFor(Server, 0), makeRequest(kSource, 10000));
  });
  // Give the first request time to reach the worker, then queue one whose
  // deadline will expire while it waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  CompileResponse R =
      compileOverSocket(clientFor(Server, 0), makeRequest(kSource, 50));
  Slow.join();
  Server.drainAndJoin();

  EXPECT_EQ(R.Kind, ResponseKind::Timeout);
  ServerStats S = Server.stats();
  EXPECT_EQ(S.TimedOut, 1u);
}

//===----------------------------------------------------------------------===
// Shutdown and transport failure
//===----------------------------------------------------------------------===

TEST(ServeTest, DrainAnswersEveryAdmittedRequest) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  SO.Workers = 2;
  SO.QueueDepth = 16;
  SO.TestHoldMs = 80;
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  std::atomic<unsigned> Ok{0};
  std::vector<std::thread> Clients;
  for (unsigned K = 0; K != 5; ++K)
    Clients.emplace_back([&] {
      CompileResponse R = compileOverSocket(clientFor(Server, 0),
                                            makeRequest(kSource));
      if (R.Kind == ResponseKind::Ok)
        ++Ok;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // SIGTERM semantics: stop admitting, then finish what was admitted.
  Server.requestStop();
  Server.drainAndJoin();
  for (std::thread &T : Clients)
    T.join();

  ServerStats S = Server.stats();
  EXPECT_EQ(S.Completed, S.Accepted); // every admitted request answered
  EXPECT_EQ(Ok.load(), S.Accepted);
  EXPECT_FALSE(Server.running());
}

TEST(ServeTest, ClientBacksOffOnConnectFailureThenGivesUp) {
  ClientOptions CO;
  CO.SocketPath = "/nonexistent-gis-daemon.sock";
  CO.Retries = 2;
  CO.BackoffBaseMs = 1;
  CO.BackoffMaxMs = 4;
  CompileResponse R = compileOverSocket(CO, makeRequest(kSource));
  EXPECT_EQ(R.Kind, ResponseKind::ConnectFailed);
  EXPECT_EQ(R.Attempts, 0u); // never reached a daemon
}

TEST(ServeTest, PingStatsAndMalformedRequests) {
  TempDir D("gis-serve");
  ServerOptions SO;
  SO.SocketPath = D.Path + "/s";
  CompileServer Server(MachineDescription::rs6k(), PipelineOptions{}, SO);
  ASSERT_TRUE(Server.start().isOk());

  EXPECT_TRUE(pingServer(SO.SocketPath).isOk());
  EXPECT_FALSE(pingServer(D.Path + "/nope").isOk());

  compileOverSocket(clientFor(Server), makeRequest(kSource));
  std::string Json;
  ASSERT_TRUE(fetchServerStats(SO.SocketPath, Json).isOk());
  EXPECT_NE(Json.find("\"schema\": \"gis-serve-stats-v2\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"serve\""), std::string::npos);
  // The STATS request itself is an admission, so don't pin the count.
  EXPECT_NE(Json.find("\"accepted\": "), std::string::npos);
  EXPECT_NE(Json.find("\"tx.rollbacks\": "), std::string::npos);
  // "pipeline" sums the one compile's scalars, through the --stats-json
  // writer: equal to a local run's, key for key.
  auto Local = compileMiniCOrDie(kSource);
  CompileEngine Engine(MachineDescription::rs6k(), PipelineOptions{});
  PipelineStats Want = Engine.compile(*Local).Aggregate;
  size_t Pipeline = Json.find("\"pipeline\": {");
  ASSERT_NE(Pipeline, std::string::npos);
  forEachStatsScalar(
      [&](const StatsScalar &Row, const unsigned &V) {
        std::string Key = "\"" + std::string(Row.JsonKey) + "\": ";
        size_t At = Json.find(Key, Pipeline);
        ASSERT_NE(At, std::string::npos) << Row.JsonKey;
        EXPECT_EQ(std::strtoull(Json.c_str() + At + Key.size(), nullptr, 10),
                  V)
            << Row.JsonKey;
      },
      Want);
  EXPECT_GT(Want.Global.RegionsScheduled, 0u);

  // A raw bogus verb gets a structured ERR, not a hang or a crash.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SO.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  ASSERT_TRUE(writeAll(Fd, "BOGUS request\n"));
  std::string Line, Rest;
  ASSERT_TRUE(readLine(Fd, Line, Rest));
  EXPECT_EQ(Line.rfind("ERR ", 0), 0u);
  ::close(Fd);
  EXPECT_GE(Server.stats().Errors, 1u);
}

} // namespace
