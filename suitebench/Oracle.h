//===- suitebench/Oracle.h - Seed-independent correctness oracle -*- C++ -*-=//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relations every verdict of the benchmark must satisfy. They hold at
/// any seed; only the pinned issue counts are specific to the default one:
///
///  - hybrid-unbounded and CI report every flow the concrete Interpreter
///    observes, and find every planted real flow;
///  - optimized issues are a subset of unbounded ones, and unbounded
///    issues a subset of CI ones;
///  - a completed CS run is a subset of CI;
///  - at the default seed, the distinct issue count of every (app, config)
///    pair matches the Table 3 contract.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUITEBENCH_ORACLE_H
#define TAJ_SUITEBENCH_ORACLE_H

#include "interp/Interpreter.h"
#include "slicer/Issue.h"

#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace suitebench {

using IssueKey = std::tuple<taj::StmtId, taj::StmtId, taj::RuleMask>;
/// Sorted, duplicate-free (source, sink, rule) triples of one verdict.
using IssueSet = std::vector<IssueKey>;

IssueSet issueSet(const std::vector<taj::Issue> &Issues);

/// True when every element of \p A is in \p B.
bool isSubset(const IssueSet &A, const IssueSet &B);

/// True when every dynamically observed flow is reported with the same
/// source and sink and an overlapping rule.
bool coversFlows(const IssueSet &Issues,
                 const std::set<taj::DynamicFlow> &Flows);

/// The pinned distinct issue count of (\p App, \p Config) at the default
/// seed: -1 when CS is expected not to complete, nullopt when unpinned.
std::optional<int> expectedDistinct(const std::string &App,
                                    const std::string &Config);

} // namespace suitebench

#endif // TAJ_SUITEBENCH_ORACLE_H
