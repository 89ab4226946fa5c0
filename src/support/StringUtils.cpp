//===- support/StringUtils.cpp - Small string helpers --------------------===//

#include "support/StringUtils.h"

using namespace gis;

std::string_view gis::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isAsciiSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isAsciiSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> gis::split(std::string_view S, char Sep,
                                         bool KeepEmpty) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      std::string_view Piece = S.substr(Start, I - Start);
      if (KeepEmpty || !Piece.empty())
        Pieces.push_back(Piece);
      Start = I + 1;
    }
  }
  return Pieces;
}

bool gis::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

bool gis::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}
