//===- sched/Renaming.h - Register renaming for speculation -----*- C++ -*-===//
//
// Part of the GIS project: a reproduction of Bernstein & Rodeh,
// "Global Instruction Scheduling for Superscalar Machines", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register renaming in support of speculative motion.  When a speculative
/// candidate is vetoed only because it writes a register that is live on
/// exit from the target block (Section 5.3), the conflict can often be
/// dissolved by renaming the written register — the paper's Figure 6 shows
/// exactly this: I12's condition register cr6 is renamed to cr5 so it can
/// be hoisted past I5.  (Section 4.2 notes the XL compiler performs "certain
/// renaming of registers" akin to SSA.)
///
/// The rename is performed only when it is locally provable: every use of
/// the old register reached by this definition lies in the same block,
/// after the definition and before any redefinition, and the value does not
/// escape the block.
///
//===----------------------------------------------------------------------===//

#ifndef GIS_SCHED_RENAMING_H
#define GIS_SCHED_RENAMING_H

#include "analysis/Liveness.h"
#include "ir/Function.h"

#include <functional>

namespace gis {

/// Tries to rename register \p Old, defined by instruction \p I (currently
/// placed in block \p B of \p F), to a fresh register of the same class.
/// Rewrites the definition and all block-local uses it reaches.  Returns
/// true on success; returns false (and changes nothing) when the value may
/// escape the block (\p LV must be up to date for \p F).
bool renameLocalDef(Function &F, BlockId B, InstrId I, Reg Old,
                    const Liveness &LV);

/// Same, with the escape check abstracted behind a predicate: \p IsLiveOut
/// must answer "is \p Old live on exit from \p B" against the current state
/// of \p F.  Lets the global scheduler supply its region-restricted
/// liveness view (RegionLiveness) instead of whole-function liveness.
bool renameLocalDef(Function &F, BlockId B, InstrId I, Reg Old,
                    const std::function<bool(BlockId, Reg)> &IsLiveOut);

} // namespace gis

#endif // GIS_SCHED_RENAMING_H
