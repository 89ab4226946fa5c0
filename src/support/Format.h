//===- support/Format.h - printf-style string formatting -------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string-formatting helpers.  The toolchain used for this project has
/// no std::format, so formatString wraps vsnprintf with std::string output.
/// Hot paths that build large texts (the IR printer, the disk-cache codec)
/// append decimal integers with appendInt/appendUInt instead, which format
/// through std::to_chars without a format string or a temporary.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_FORMAT_H
#define GIS_SUPPORT_FORMAT_H

#include <charconv>
#include <cstdint>
#include <string>

namespace gis {

/// Appends the decimal form of \p V to \p Out.
inline void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends the decimal form of \p V to \p Out.
inline void appendUInt(std::string &Out, uint64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Returns the printf-style formatting of the arguments as a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Pads \p S with spaces on the right up to \p Width columns.
std::string padRight(const std::string &S, unsigned Width);

/// Pads \p S with spaces on the left up to \p Width columns.
std::string padLeft(const std::string &S, unsigned Width);

} // namespace gis

#endif // GIS_SUPPORT_FORMAT_H
