//===- persist/Protocol.cpp - Compile-daemon wire protocol -----------------===//

#include "persist/Protocol.h"

#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

using namespace gis;
using namespace gis::persist;

bool persist::writeAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer that gave up (shed-and-closed, dead client)
    // must surface as EPIPE here, not kill the process with SIGPIPE.
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool persist::readLine(int Fd, std::string &Line, std::string &Rest) {
  char Buf[4096];
  size_t Filled = 0;
  while (Filled < sizeof(Buf)) {
    ssize_t N = ::read(Fd, Buf + Filled, sizeof(Buf) - Filled);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF before newline
    const char *Start = Buf + Filled;
    Filled += static_cast<size_t>(N);
    if (const void *NL = std::memchr(Start, '\n', static_cast<size_t>(N))) {
      size_t LineBytes = static_cast<const char *>(NL) - Buf;
      Line.assign(Buf, LineBytes);
      Rest.assign(Buf + LineBytes + 1, Filled - LineBytes - 1);
      return true;
    }
  }
  return false; // header line absurdly long
}

bool persist::readExact(int Fd, size_t N, std::string &Out,
                        std::string_view Rest) {
  Out.clear();
  if (N > MaxBodyBytes)
    return false;
  Out.resize(N);
  size_t Off = std::min(N, Rest.size());
  std::memcpy(Out.data(), Rest.data(), Off);
  while (Off < N) {
    ssize_t Got = ::read(Fd, &Out[Off], N - Off);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (Got == 0)
      return false;
    Off += static_cast<size_t>(Got);
  }
  return true;
}

std::string persist::formatCompileRequest(const CompileRequest &Req) {
  std::string Frame = formatString(
      "COMPILE %s %u %s %zu\n", Req.IsAsm ? "asm" : "c", Req.DeadlineMs,
      Req.Name.empty() ? "<anon>" : Req.Name.c_str(), Req.Source.size());
  Frame += Req.Source;
  return Frame;
}

Status persist::parseCompileRequest(int Fd, const std::string &HeaderLine,
                                    std::string_view Rest,
                                    CompileRequest &Req) {
  std::istringstream SS(HeaderLine);
  std::string Fmt;
  unsigned long long Deadline = 0, Bytes = 0;
  if (!(SS >> Fmt >> Deadline >> Req.Name >> Bytes))
    return Status::error(ErrorCode::ServeRejected,
                         "malformed COMPILE header: " + HeaderLine);
  if (Fmt != "c" && Fmt != "asm")
    return Status::error(ErrorCode::ServeRejected,
                         "unknown input format '" + Fmt + "'");
  if (Bytes > MaxBodyBytes)
    return Status::error(ErrorCode::ServeRejected,
                         formatString("request body of %llu bytes exceeds "
                                      "the %zu-byte bound",
                                      Bytes, MaxBodyBytes));
  Req.IsAsm = Fmt == "asm";
  Req.DeadlineMs = static_cast<unsigned>(Deadline);
  if (!readExact(Fd, static_cast<size_t>(Bytes), Req.Source, Rest))
    return Status::error(ErrorCode::ServeRejected,
                         "connection closed mid-body");
  return Status::ok();
}

std::string persist::formatOkResponse(uint64_t MemHits, uint64_t DiskHits,
                                      uint64_t Misses,
                                      const std::string &Body) {
  std::string Frame = formatString(
      "OK %llu %llu %llu %zu\n", static_cast<unsigned long long>(MemHits),
      static_cast<unsigned long long>(DiskHits),
      static_cast<unsigned long long>(Misses), Body.size());
  Frame += Body;
  return Frame;
}

std::string persist::formatShedResponse(unsigned RetryAfterMs) {
  return formatString("SHED %u\n", RetryAfterMs);
}

std::string persist::formatTimeoutResponse() { return "TIMEOUT\n"; }

std::string persist::formatErrResponse(const std::string &Code,
                                       const std::string &Message) {
  std::string Frame =
      formatString("ERR %s %zu\n", Code.c_str(), Message.size());
  Frame += Message;
  return Frame;
}
