//===- suitebench/Oracle.cpp -----------------------------------*- C++ -*-===//

#include "suitebench/Oracle.h"

#include <algorithm>
#include <cstring>

using namespace taj;
using namespace suitebench;

IssueSet suitebench::issueSet(const std::vector<Issue> &Issues) {
  IssueSet Out;
  Out.reserve(Issues.size());
  for (const Issue &I : Issues)
    Out.emplace_back(I.Source, I.Sink, I.Rule);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool suitebench::isSubset(const IssueSet &A, const IssueSet &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

bool suitebench::coversFlows(const IssueSet &Issues,
                             const std::set<DynamicFlow> &Flows) {
  for (const DynamicFlow &F : Flows) {
    auto It = std::lower_bound(Issues.begin(), Issues.end(),
                               IssueKey(F.Source, F.Sink, 0));
    bool Found = false;
    for (; It != Issues.end() && std::get<0>(*It) == F.Source &&
           std::get<1>(*It) == F.Sink;
         ++It)
      Found |= (std::get<2>(*It) & F.Rule) != 0;
    if (!Found)
      return false;
  }
  return true;
}

namespace {

/// Distinct issue counts at the default seed, as the seed commit reports
/// them (regenerate with `suitebench --dump-expected`). -1: CS runs out of
/// its channel budget and does not complete.
struct Pinned {
  const char *App;
  int HybridUnbounded, HybridOptimized, Cs, Ci;
};

const Pinned Table3[] = {
    {"A", 9, 9, 8, 12},
    {"B", 4, 3, -1, 11},
    {"Blojsom", 39, 32, -1, 84},
    {"BlueBlog", 4, 3, 2, 6},
    {"Dlog", 3, 3, -1, 28},
    {"Friki", 10, 8, 2, 20},
    {"GestCV", 3, 3, -1, 42},
    {"Ginp", 11, 10, 7, 51},
    {"GridSphere", 133, 66, -1, 142},
    {"I", 2, 2, 1, 3},
    {"JSPWiki", 11, 9, -1, 63},
    {"Lutece", 1, 1, -1, 6},
    {"MVNForum", 43, 35, -1, 62},
    {"PersonalBlog", 75, 26, -1, 309},
    {"Roller", 108, 32, -1, 528},
    {"S", 65, 53, -1, 116},
    {"SBM", 25, 24, 20, 26},
    {"SnipSnap", 15, 12, -1, 66},
    {"SPLC", 6, 5, -1, 17},
    {"ST", 121, 42, -1, 305},
    {"VQWiki", 148, 49, -1, 380},
    {"Webgoat", 8, 6, -1, 17},
};

} // namespace

std::optional<int> suitebench::expectedDistinct(const std::string &App,
                                                const std::string &Config) {
  for (const Pinned &P : Table3) {
    if (App != P.App)
      continue;
    if (Config == "hybrid-unbounded")
      return P.HybridUnbounded;
    if (Config == "hybrid-optimized")
      return P.HybridOptimized;
    if (Config == "cs")
      return P.Cs;
    if (Config == "ci")
      return P.Ci;
  }
  return std::nullopt;
}
