//===- ir/Printer.h - Textual IR printing -----------------------*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints modules/functions/instructions in the GIS assembly syntax, the
/// same syntax accepted by ir/Parser.h.  The output visually mirrors the
/// paper's Figure 2 pseudo-code.
///
/// One append-only core (appendInstruction, appendFunction, appendModule)
/// produces every printed byte; the string and stream entry points forward
/// to it.  The printed text is also the schedule cache's key serialization
/// and the disk tier's payload, so its bytes are a compatibility contract
/// (DESIGN.md section 12): a changed byte orphans every cache entry.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_IR_PRINTER_H
#define GIS_IR_PRINTER_H

#include "ir/Module.h"

#include <iosfwd>
#include <string>

namespace gis {

/// Appends one instruction (without trailing newline) to \p Out.
void appendInstruction(std::string &Out, const Function &F, InstrId Id);

/// Appends a whole function to \p Out.
void appendFunction(std::string &Out, const Function &F);

/// Appends a whole module (globals + functions) to \p Out.
void appendModule(std::string &Out, const Module &M);

/// Renders one instruction (without trailing newline).
std::string instructionToString(const Function &F, InstrId Id);

/// Renders a whole function.
std::string functionToString(const Function &F);

/// Renders a whole module (globals + functions).
std::string moduleToString(const Module &M);

/// Stream variants.
void printFunction(const Function &F, std::ostream &OS);
void printModule(const Module &M, std::ostream &OS);

} // namespace gis

#endif // GIS_IR_PRINTER_H
