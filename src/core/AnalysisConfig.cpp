//===- core/AnalysisConfig.cpp ---------------------------------*- C++ -*-===//

#include "core/AnalysisConfig.h"

#include <algorithm>

using namespace taj;

PointsToOptions AnalysisConfig::pointsToOptions() const {
  PointsToOptions O;
  O.Prioritized = Prioritized;
  O.MaxCallGraphNodes = MaxCallGraphNodes;
  O.ExcludeWhitelisted = ExcludeWhitelisted;
  O.JndiBindings = JndiBindings;
  O.EjbHomeToBean = EjbHomeToBean;
  return O;
}

RunGuard::Limits AnalysisConfig::guardLimits() const {
  RunGuard::Limits L;
  L.DeadlineMs = DeadlineMs;
  L.MaxMemoryBytes = MaxMemoryMb * 1024 * 1024;
  L.FailAtCheckpoint = FailAtCheckpoint;
  L.CrashAtCheckpoint = CrashAtCheckpoint;
  L.HangAtCheckpoint = HangAtCheckpoint;
  return L;
}

std::string AnalysisConfig::pointsToFingerprint() const {
  std::string S = "pts:prio=" + std::to_string(Prioritized) +
                  ";maxcg=" + std::to_string(MaxCallGraphNodes) +
                  ";nowl=" + std::to_string(ExcludeWhitelisted) +
                  ";sa=" + stringAnalysisModeName(StringAnalysis);
  // Deployment bindings live in unordered maps; sort for a canonical form.
  std::vector<std::pair<std::string, ClassId>> Jndi(JndiBindings.begin(),
                                                    JndiBindings.end());
  std::sort(Jndi.begin(), Jndi.end());
  S += ";jndi=";
  for (const auto &[Name, Cls] : Jndi)
    S += Name + "->" + std::to_string(Cls) + ",";
  std::vector<std::pair<ClassId, ClassId>> Ejb(EjbHomeToBean.begin(),
                                               EjbHomeToBean.end());
  std::sort(Ejb.begin(), Ejb.end());
  S += ";ejb=";
  for (const auto &[Home, Bean] : Ejb)
    S += std::to_string(Home) + "->" + std::to_string(Bean) + ",";
  return S;
}

std::string AnalysisConfig::sdgFingerprint() const {
  std::string S = pointsToFingerprint() +
                  "|sdg:slicer=" + std::to_string(static_cast<int>(Slicer)) +
                  ";exc=" + std::to_string(ModelExceptionSources) +
                  ";nested=" + std::to_string(NestedTaintDepth);
  if (Slicer == SlicerKind::CS)
    S += ";chan=" + std::to_string(CsChanBudget);
  return S;
}

SlicerOptions AnalysisConfig::slicerOptions() const {
  SlicerOptions O;
  O.MaxHeapTransitions = MaxHeapTransitions;
  O.MaxFlowLength = MaxFlowLength;
  O.NestedTaintDepth = NestedTaintDepth;
  O.ModelExceptionSources = ModelExceptionSources;
  O.CsChanBudget = CsChanBudget;
  O.Verify = Verify;
  return O;
}

AnalysisConfig AnalysisConfig::hybridUnbounded() {
  AnalysisConfig C;
  C.Name = "hybrid-unbounded";
  C.Slicer = SlicerKind::Hybrid;
  return C;
}

AnalysisConfig AnalysisConfig::hybridPrioritized(uint32_t CgBudget) {
  AnalysisConfig C;
  C.Name = "hybrid-prioritized";
  C.Slicer = SlicerKind::Hybrid;
  C.Prioritized = true;
  C.MaxCallGraphNodes = CgBudget;
  return C;
}

AnalysisConfig AnalysisConfig::hybridOptimized(uint32_t CgBudget,
                                               uint32_t HeapTransitions,
                                               uint32_t FlowLength,
                                               uint32_t NestedDepth) {
  AnalysisConfig C;
  C.Name = "hybrid-optimized";
  C.Slicer = SlicerKind::Hybrid;
  C.Prioritized = true;
  C.MaxCallGraphNodes = CgBudget;
  C.ExcludeWhitelisted = true;
  C.MaxHeapTransitions = HeapTransitions;
  C.MaxFlowLength = FlowLength;
  C.NestedTaintDepth = NestedDepth;
  return C;
}

AnalysisConfig AnalysisConfig::cs() {
  AnalysisConfig C;
  C.Name = "cs";
  C.Slicer = SlicerKind::CS;
  return C;
}

AnalysisConfig AnalysisConfig::ci() {
  AnalysisConfig C;
  C.Name = "ci";
  C.Slicer = SlicerKind::CI;
  return C;
}
