//===- ir/Module.h - Translation unit ---------------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module: a list of functions plus statically allocated global memory
/// (arrays emitted by the mini-C frontend).
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_MODULE_H
#define GIS_IR_MODULE_H

#include "ir/Function.h"

#include <memory>
#include <string>
#include <vector>

namespace gis {

/// A named, statically allocated region of memory (e.g. a global array).
struct GlobalArray {
  std::string Name;
  int64_t Address;  ///< base address in the interpreter's flat memory
  int64_t SizeWords; ///< number of 8-byte words (one element per word slot,
                     ///< element stride is 4 as in the paper's examples)
};

/// A translation unit.
class Module {
public:
  Function &createFunction(std::string Name) {
    Functions.push_back(std::make_unique<Function>(std::move(Name)));
    return *Functions.back();
  }

  std::vector<std::unique_ptr<Function>> &functions() { return Functions; }
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }

  Function *findFunction(const std::string &Name) {
    for (auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  std::vector<GlobalArray> &globals() { return Globals; }
  const std::vector<GlobalArray> &globals() const { return Globals; }

  /// Reserves \p SizeWords words of global memory for \p Name and returns
  /// the descriptor, valid until the next allocation.  Addresses are laid
  /// out sequentially from 0x1000, with a stride of 4 per element and 64
  /// bytes of padding to keep arrays disjoint.  Returns null, reserving
  /// nothing, when \p SizeWords is negative or the array's end plus that
  /// padding -- the next array's address -- overflows int64_t; the front
  /// ends turn that into a diagnostic.
  const GlobalArray *allocateGlobal(std::string Name, int64_t SizeWords) {
    int64_t Address = 0x1000;
    if (!Globals.empty()) // checked when that array was reserved
      Address = Globals.back().Address + Globals.back().SizeWords * 4 + 64;
    int64_t Next;
    if (SizeWords < 0 || __builtin_mul_overflow(SizeWords, 4, &Next) ||
        __builtin_add_overflow(Next, Address, &Next) ||
        __builtin_add_overflow(Next, 64, &Next))
      return nullptr;
    Globals.push_back(GlobalArray{std::move(Name), Address, SizeWords});
    return &Globals.back();
  }

private:
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<GlobalArray> Globals;
};

} // namespace gis

#endif // GIS_IR_MODULE_H
