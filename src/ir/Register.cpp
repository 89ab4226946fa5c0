//===- ir/Register.cpp - Register printing --------------------------------===//

#include "ir/Register.h"

#include <charconv>

using namespace gis;

void gis::appendReg(std::string &Out, Reg R) {
  if (!R.isValid()) {
    Out += "<invalid>";
    return;
  }
  char Buf[16];
  char *P = Buf;
  switch (R.regClass()) {
  case RegClass::GPR:
    *P++ = 'r';
    break;
  case RegClass::FPR:
    *P++ = 'f';
    break;
  case RegClass::CR:
    *P++ = 'c';
    *P++ = 'r';
    break;
  }
  Out.append(Buf, std::to_chars(P, Buf + sizeof(Buf), R.index()).ptr);
}

std::string Reg::str() const {
  std::string S;
  appendReg(S, *this);
  return S;
}
