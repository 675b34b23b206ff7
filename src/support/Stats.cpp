//===- support/Stats.cpp --------------------------------------*- C++ -*-===//

#include "support/Stats.h"

#include <cctype>
#include <cstdlib>

using namespace taj;

void Stats::merge(const Stats &Other) {
  for (const auto &[Name, H] : Other.Index)
    add(Name, Other.Slots[H]);
}

std::string Stats::toString() const {
  std::string Out;
  for (const auto &[Name, H] : Index) {
    Out += Name;
    Out += '=';
    Out += std::to_string(Slots[H]);
    Out += '\n';
  }
  return Out;
}

bool Stats::mergeJson(const std::string &Json) {
  // Inverse of toJson(): one flat object of "name":integer pairs. The
  // worker pool uses this to fold a worker's stats blob back into the
  // merged stats. Tolerates whitespace; rejects nesting.
  size_t I = 0;
  auto SkipWs = [&] {
    while (I < Json.size() && std::isspace(static_cast<unsigned char>(Json[I])))
      ++I;
  };
  SkipWs();
  if (I >= Json.size() || Json[I] != '{')
    return false;
  ++I;
  SkipWs();
  if (I < Json.size() && Json[I] == '}')
    return true; // empty object
  for (;;) {
    SkipWs();
    if (I >= Json.size() || Json[I] != '"')
      return false;
    ++I;
    std::string Name;
    while (I < Json.size() && Json[I] != '"') {
      if (Json[I] == '\\' && I + 1 < Json.size())
        ++I;
      Name += Json[I++];
    }
    if (I >= Json.size())
      return false;
    ++I; // closing quote
    SkipWs();
    if (I >= Json.size() || Json[I] != ':')
      return false;
    ++I;
    SkipWs();
    size_t Start = I;
    while (I < Json.size() && std::isdigit(static_cast<unsigned char>(Json[I])))
      ++I;
    if (I == Start)
      return false;
    add(Name, std::strtoull(Json.c_str() + Start, nullptr, 10));
    SkipWs();
    if (I < Json.size() && Json[I] == ',') {
      ++I;
      continue;
    }
    break;
  }
  SkipWs();
  return I < Json.size() && Json[I] == '}';
}

std::string Stats::toJson() const {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, H] : Index) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    for (char C : Name) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += "\":";
    Out += std::to_string(Slots[H]);
  }
  Out += "}";
  return Out;
}
