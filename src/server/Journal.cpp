//===- server/Journal.cpp - Append-only batch journal ----------*- C++ -*-===//

#include "server/Journal.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace taj;
using namespace taj::server;

const char *server::exitClassName(ExitClass C) {
  switch (C) {
  case ExitClass::Clean:
    return "clean";
  case ExitClass::Truncated:
    return "truncated";
  case ExitClass::Error:
    return "error";
  case ExitClass::Crashed:
    return "crashed";
  case ExitClass::Timeout:
    return "timeout";
  case ExitClass::Oom:
    return "oom";
  }
  return "unknown";
}

bool server::exitClassFromName(const std::string &Name, ExitClass &Out) {
  for (ExitClass C :
       {ExitClass::Clean, ExitClass::Truncated, ExitClass::Error,
        ExitClass::Crashed, ExitClass::Timeout, ExitClass::Oom}) {
    if (Name == exitClassName(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

namespace {

/// Journal strings are file names off a line-based batch list, so quote
/// and backslash are the only escapes that can round-trip through it.
std::string escaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Extracts the raw value text after "key": in a flat one-line object.
/// Returns nullptr when the key is absent.
const char *valueOf(const std::string &Line, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t At = 0;
  for (;;) {
    At = Line.find(Needle, At);
    if (At == std::string::npos)
      return nullptr;
    // The match must be a key, i.e. not preceded by an escaping backslash
    // (a quoted key inside a string value cannot occur unescaped).
    if (At == 0 || Line[At - 1] != '\\')
      return Line.c_str() + At + Needle.size();
    At += Needle.size();
  }
}

bool parseString(const std::string &Line, const char *Key, std::string &Out) {
  const char *V = valueOf(Line, Key);
  if (!V || *V != '"')
    return false;
  ++V;
  Out.clear();
  while (*V && *V != '"') {
    if (*V == '\\' && V[1])
      ++V;
    Out += *V++;
  }
  return *V == '"';
}

bool parseInt(const std::string &Line, const char *Key, long long &Out) {
  const char *V = valueOf(Line, Key);
  if (!V || (!std::isdigit(static_cast<unsigned char>(*V)) && *V != '-'))
    return false;
  Out = std::strtoll(V, nullptr, 10);
  return true;
}

bool parseBool(const std::string &Line, const char *Key, bool &Out) {
  const char *V = valueOf(Line, Key);
  if (!V)
    return false;
  if (std::strncmp(V, "true", 4) == 0) {
    Out = true;
    return true;
  }
  if (std::strncmp(V, "false", 5) == 0) {
    Out = false;
    return true;
  }
  return false;
}

} // namespace

std::string Journal::toLine(const Attempt &A) {
  std::string L = "{\"line\":" + std::to_string(A.Line);
  L += ",\"app\":\"" + escaped(A.App) + "\"";
  L += ",\"config\":\"" + escaped(A.ConfigFp) + "\"";
  L += ",\"attempt\":" + std::to_string(A.AttemptNo);
  L += ",\"class\":\"" + std::string(exitClassName(A.Class)) + "\"";
  L += ",\"signal\":" + std::to_string(A.Signal);
  L += ",\"exit\":" + std::to_string(A.Exit);
  L += ",\"issues\":" + std::to_string(A.Issues);
  L += std::string(",\"terminal\":") + (A.Terminal ? "true" : "false");
  L += "}";
  return L;
}

bool Journal::fromLine(const std::string &Line, Attempt &Out) {
  if (Line.empty() || Line.front() != '{' || Line.back() != '}')
    return false;
  long long LineNo, AttemptNo, Signal, Exit, Issues;
  std::string Class;
  if (!parseInt(Line, "line", LineNo) || !parseString(Line, "app", Out.App) ||
      !parseString(Line, "config", Out.ConfigFp) ||
      !parseInt(Line, "attempt", AttemptNo) ||
      !parseString(Line, "class", Class) ||
      !exitClassFromName(Class, Out.Class) ||
      !parseInt(Line, "signal", Signal) || !parseInt(Line, "exit", Exit) ||
      !parseInt(Line, "issues", Issues) ||
      !parseBool(Line, "terminal", Out.Terminal))
    return false;
  if (LineNo < 0 || AttemptNo < 1 || Issues < 0)
    return false;
  Out.Line = static_cast<uint64_t>(LineNo);
  Out.AttemptNo = static_cast<unsigned>(AttemptNo);
  Out.Signal = static_cast<int>(Signal);
  Out.Exit = static_cast<int>(Exit);
  Out.Issues = static_cast<uint64_t>(Issues);
  return true;
}

Journal::~Journal() {
  if (Out)
    std::fclose(Out);
}

void Journal::append(const Attempt &A) {
  if (Path.empty() || OpenFailed)
    return;
  if (!Out) {
    Out = std::fopen(Path.c_str(), "a");
    if (!Out) {
      OpenFailed = true;
      std::fprintf(stderr, "taj-supervise: cannot append to journal '%s'\n",
                   Path.c_str());
      return;
    }
  }
  // One write + flush per record: a supervisor killed right here loses at
  // most this line, and the loader skips a torn tail.
  std::string L = toLine(A);
  L += '\n';
  std::fwrite(L.data(), 1, L.size(), Out);
  std::fflush(Out);
}

std::vector<Attempt> Journal::load(const std::string &Path) {
  std::vector<Attempt> Out;
  std::ifstream In(Path);
  if (!In)
    return Out;
  std::string Line;
  while (std::getline(In, Line)) {
    Attempt A;
    if (fromLine(Line, A))
      Out.push_back(std::move(A));
  }
  return Out;
}
