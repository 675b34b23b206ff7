//===- ir/Verifier.h - TIR structural checks -------------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification of SSA-form TIR: CFG consistency, single
/// definitions, uses dominated by definitions, phi arity, and terminator
/// placement. Returns human-readable error strings (empty = valid).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_IR_VERIFIER_H
#define TAJ_IR_VERIFIER_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace taj {

/// Verifies one SSA-form method; appends errors to \p Errors.
void verifyMethod(const Program &P, MethodId M,
                  std::vector<std::string> &Errors);

/// Verifies every method with a body. Returns all errors (empty = valid).
std::vector<std::string> verifyProgram(const Program &P);

/// A class on a superclass chain that loops back on itself, or InvalidId
/// if every chain ends (at InvalidId or at an out-of-range id, which the
/// table checks report separately). Linear in the number of classes.
ClassId findSuperclassCycle(const Program &P);

} // namespace taj

#endif // TAJ_IR_VERIFIER_H
