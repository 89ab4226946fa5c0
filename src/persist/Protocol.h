//===- persist/Protocol.h - Compile-daemon wire protocol --------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between `gisc --serve` (persist/Server.h) and
/// `gisc --client` (persist/Client.h): one request per connection over a
/// Unix stream socket, text header + length-prefixed body, so framing
/// survives any payload bytes.
///
/// Requests:
///   COMPILE <fmt> <deadline_ms> <name> <nbytes>\n<nbytes of source>
///       fmt is "c" (mini-C) or "asm" (GIS assembly); name is a
///       space-free display name; deadline_ms bounds queue wait.
///   PING\n
///   STATS\n
///
/// Responses:
///   OK <mem_hits> <disk_hits> <misses> <nbytes>\n<scheduled module text>
///   SHED <retry_after_ms>\n        admission queue full -- try later
///   TIMEOUT\n                      deadline expired before compile began
///   ERR <code> <nbytes>\n<message> malformed request or compile failure
///   PONG\n                         (PING)
///   OK 0 0 0 <nbytes>\n<json>      (STATS)
///
/// The deadline is an admission bound, not a preemption bound: a request
/// whose deadline passes while queued gets TIMEOUT; once a worker starts
/// compiling, the compile runs to completion (scheduling one function is
/// short relative to any sane deadline).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_PERSIST_PROTOCOL_H
#define GIS_PERSIST_PROTOCOL_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace gis {
namespace persist {

/// Upper bound on request/response bodies (64 MiB): a framing error must
/// not make a peer try to allocate an absurd buffer.
constexpr size_t MaxBodyBytes = 64ull << 20;

/// One parsed COMPILE request.
struct CompileRequest {
  bool IsAsm = false;
  unsigned DeadlineMs = 0;
  std::string Name;
  std::string Source;
};

//===----------------------------------------------------------------------===
// Blocking socket I/O helpers (shared by server and client).  All return
// false on EOF/error; short reads never surface as truncated payloads.
//===----------------------------------------------------------------------===

/// Writes all of \p Bytes to \p Fd.
bool writeAll(int Fd, const std::string &Bytes);

/// Reads a frame's header line, up to and including its '\n', into \p Line
/// (newline stripped).  It reads the socket in chunks, not a byte per
/// call, so it may read past the newline: those bytes, the start of the
/// frame's body, go to \p Rest, for readExact.  Bounded at 4096 bytes:
/// header lines are short by construction.
bool readLine(int Fd, std::string &Line, std::string &Rest);

/// Reads exactly \p N bytes into \p Out: the first ones from \p Rest (the
/// body bytes a readLine read ahead), the others from \p Fd.
bool readExact(int Fd, size_t N, std::string &Out,
               std::string_view Rest = {});

//===----------------------------------------------------------------------===
// Framing
//===----------------------------------------------------------------------===

/// Renders the COMPILE request frame (header + body).
std::string formatCompileRequest(const CompileRequest &Req);

/// Parses a COMPILE header line (without "COMPILE " consumed) and reads
/// the body: \p Rest (what readLine read past the header), then \p Fd.
/// Returns ServeRejected on malformed input.
Status parseCompileRequest(int Fd, const std::string &HeaderLine,
                           std::string_view Rest, CompileRequest &Req);

std::string formatOkResponse(uint64_t MemHits, uint64_t DiskHits,
                             uint64_t Misses, const std::string &Body);
std::string formatShedResponse(unsigned RetryAfterMs);
std::string formatTimeoutResponse();
std::string formatErrResponse(const std::string &Code,
                              const std::string &Message);

} // namespace persist
} // namespace gis

#endif // GIS_PERSIST_PROTOCOL_H
