//===- persist/Client.cpp - Retrying compile-daemon client -----------------===//

#include "persist/Client.h"

#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace gis;
using namespace gis::persist;

namespace {

int connectTo(const std::string &SocketPath) {
  if (SocketPath.size() >= sizeof(sockaddr_un{}.sun_path))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One attempt: connect, send, read the full response.  Returns false only
/// on connect failure (the retryable transport case); response-level
/// failures are encoded in \p R.
bool attemptOnce(const ClientOptions &Opts, const CompileRequest &Req,
                 CompileResponse &R) {
  int Fd = connectTo(Opts.SocketPath);
  if (Fd < 0)
    return false;
  ++R.Attempts;

  // A failed send does NOT short-circuit the read: a shedding server
  // answers and closes without reading the request, so the client may hit
  // EPIPE mid-write while the SHED frame already sits in its receive
  // buffer.  The response, if any, is authoritative.
  (void)writeAll(Fd, formatCompileRequest(Req));
  std::string Line, BodyStart;
  if (!readLine(Fd, Line, BodyStart)) {
    ::close(Fd);
    R.Kind = ResponseKind::ProtocolError;
    R.Text = "connection closed before a response arrived";
    return true;
  }

  std::istringstream SS(Line);
  std::string Tag;
  SS >> Tag;
  if (Tag == "OK") {
    unsigned long long Mem = 0, DiskN = 0, Miss = 0, Bytes = 0;
    if (!(SS >> Mem >> DiskN >> Miss >> Bytes) ||
        !readExact(Fd, static_cast<size_t>(Bytes), R.Text, BodyStart)) {
      R.Kind = ResponseKind::ProtocolError;
      R.Text = "truncated OK response";
    } else {
      R.Kind = ResponseKind::Ok;
      R.MemHits = Mem;
      R.DiskHits = DiskN;
      R.Misses = Miss;
    }
  } else if (Tag == "SHED") {
    unsigned RetryMs = 0;
    SS >> RetryMs;
    R.Kind = ResponseKind::Shed;
    R.Text = formatString("%u", RetryMs); // floor for the caller's backoff
  } else if (Tag == "TIMEOUT") {
    R.Kind = ResponseKind::Timeout;
    R.Text = "deadline expired before the compile began";
  } else if (Tag == "ERR") {
    std::string Code;
    unsigned long long Bytes = 0;
    SS >> Code >> Bytes;
    std::string Msg;
    readExact(Fd, static_cast<size_t>(Bytes), Msg, BodyStart);
    R.Kind = ResponseKind::Error;
    R.Text = Code + ": " + Msg;
  } else {
    R.Kind = ResponseKind::ProtocolError;
    R.Text = "unrecognised response: " + Line;
  }
  ::close(Fd);
  return true;
}

} // namespace

CompileResponse persist::compileOverSocket(const ClientOptions &Opts,
                                           const CompileRequest &Req) {
  // Jitter decorrelates retries across client processes; the seed mixes
  // the pid so two clients shed at the same instant back off differently.
  std::mt19937 Rng(static_cast<unsigned>(::getpid()) * 2654435761u ^
                   static_cast<unsigned>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()));

  CompileResponse R;
  for (unsigned Attempt = 0;; ++Attempt) {
    bool Connected = attemptOnce(Opts, Req, R);
    bool Retryable =
        !Connected || (Connected && R.Kind == ResponseKind::Shed);
    if (!Retryable || Attempt >= Opts.Retries) {
      if (!Connected)
        R.Kind = ResponseKind::ConnectFailed;
      return R;
    }
    uint64_t Backoff = static_cast<uint64_t>(Opts.BackoffBaseMs)
                       << std::min(Attempt, 16u);
    if (Connected && R.Kind == ResponseKind::Shed) {
      // SHED carries the server's retry hint; treat it as a floor.
      unsigned Hint = static_cast<unsigned>(
          std::strtoul(R.Text.c_str(), nullptr, 10));
      Backoff = std::max<uint64_t>(Backoff, Hint);
    }
    Backoff = std::min<uint64_t>(Backoff, Opts.BackoffMaxMs);
    std::uniform_int_distribution<uint64_t> Jitter(
        0, Opts.BackoffBaseMs ? Opts.BackoffBaseMs : 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Backoff + Jitter(Rng)));
  }
}

Status persist::pingServer(const std::string &SocketPath) {
  int Fd = connectTo(SocketPath);
  if (Fd < 0)
    return Status::error(ErrorCode::ServeRejected,
                         formatString("connect %s: %s", SocketPath.c_str(),
                                      std::strerror(errno)));
  std::string Line, Rest;
  bool Ok =
      writeAll(Fd, "PING\n") && readLine(Fd, Line, Rest) && Line == "PONG";
  ::close(Fd);
  return Ok ? Status::ok()
            : Status::error(ErrorCode::ServeRejected,
                            "daemon did not answer PONG");
}

Status persist::fetchServerStats(const std::string &SocketPath,
                                 std::string &Json) {
  int Fd = connectTo(SocketPath);
  if (Fd < 0)
    return Status::error(ErrorCode::ServeRejected,
                         formatString("connect %s: %s", SocketPath.c_str(),
                                      std::strerror(errno)));
  std::string Line, BodyStart;
  bool Ok = writeAll(Fd, "STATS\n") && readLine(Fd, Line, BodyStart);
  if (Ok) {
    std::istringstream SS(Line);
    std::string Tag;
    unsigned long long A, B, C, Bytes = 0;
    Ok = (SS >> Tag >> A >> B >> C >> Bytes) && Tag == "OK" &&
         readExact(Fd, static_cast<size_t>(Bytes), Json, BodyStart);
  }
  ::close(Fd);
  return Ok ? Status::ok()
            : Status::error(ErrorCode::ServeRejected,
                            "malformed STATS response");
}
