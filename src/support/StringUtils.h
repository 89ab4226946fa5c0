//===- support/StringUtils.h - Small string helpers ------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers used by the IR printer/parser and the mini-C frontend.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SUPPORT_STRINGUTILS_H
#define GIS_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace gis {

/// ASCII character classes.  The text layer reads bytes, never the locale:
/// these agree with <cctype> in the "C" locale and cost no call.
inline bool isAsciiSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}
inline bool isAsciiDigit(char C) { return C >= '0' && C <= '9'; }
inline bool isAsciiAlnum(char C) {
  char Lower = static_cast<char>(C | 0x20);
  return isAsciiDigit(C) || (Lower >= 'a' && Lower <= 'z');
}

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, dropping empty pieces when \p KeepEmpty is false.
std::vector<std::string_view> split(std::string_view S, char Sep,
                                    bool KeepEmpty = false);

/// True if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// True if \p S ends with \p Suffix.
bool endsWith(std::string_view S, std::string_view Suffix);

} // namespace gis

#endif // GIS_SUPPORT_STRINGUTILS_H
