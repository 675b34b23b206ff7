//===- server/Protocol.cpp - Analysis-server wire protocol ----------------===//

#include "server/Protocol.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

using namespace taj;
using namespace taj::server;

const char *server::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::Truncated:
    return "truncated";
  case Status::Error:
    return "error";
  case Status::Crashed:
    return "crashed";
  case Status::Timeout:
    return "timeout";
  case Status::Oom:
    return "oom";
  case Status::Busy:
    return "busy";
  case Status::ShuttingDown:
    return "shutting-down";
  case Status::BadRequest:
    return "bad-request";
  case Status::ProtocolError:
    return "protocol-error";
  }
  return "unknown";
}

Status server::statusFromExitClass(supervise::ExitClass C) {
  switch (C) {
  case supervise::ExitClass::Clean:
    return Status::Ok;
  case supervise::ExitClass::Truncated:
    return Status::Truncated;
  case supervise::ExitClass::Error:
    return Status::Error;
  case supervise::ExitClass::Crashed:
    return Status::Crashed;
  case supervise::ExitClass::Timeout:
    return Status::Timeout;
  case supervise::ExitClass::Oom:
    return Status::Oom;
  }
  return Status::Error;
}

int server::exitCodeForStatus(Status S) {
  switch (S) {
  case Status::Ok:
    return ExitClean;
  case Status::Truncated:
    return ExitTruncated;
  default:
    return ExitError;
  }
}

namespace {

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  putU32(Out, static_cast<uint32_t>(V));
  putU32(Out, static_cast<uint32_t>(V >> 32));
}

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Bounds-checked little-endian reader over one payload.
class Cursor {
public:
  Cursor(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > Len)
      return false;
    V = Data[Pos++];
    return true;
  }

  bool u32(uint32_t &V) {
    if (Pos + 4 > Len)
      return false;
    V = static_cast<uint32_t>(Data[Pos]) |
        (static_cast<uint32_t>(Data[Pos + 1]) << 8) |
        (static_cast<uint32_t>(Data[Pos + 2]) << 16) |
        (static_cast<uint32_t>(Data[Pos + 3]) << 24);
    Pos += 4;
    return true;
  }

  bool u64(uint64_t &V) {
    uint32_t Lo, Hi;
    if (!u32(Lo) || !u32(Hi))
      return false;
    V = static_cast<uint64_t>(Lo) | (static_cast<uint64_t>(Hi) << 32);
    return true;
  }

  bool str(std::string &S) {
    uint32_t N;
    if (!u32(N) || Pos + N > Len)
      return false;
    S.assign(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return true;
  }

  bool done() const { return Pos == Len; }

private:
  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
};

} // namespace

std::vector<uint8_t> server::serializeRequest(const Request &R) {
  std::vector<uint8_t> Out;
  putU32(Out, static_cast<uint32_t>(R.Sources.size()));
  for (const AppSource &S : R.Sources) {
    putStr(Out, S.Name);
    Out.push_back(S.Inline ? 1 : 0);
    putStr(Out, S.Content);
  }
  putU32(Out, static_cast<uint32_t>(R.Overrides.size()));
  for (const std::string &O : R.Overrides)
    putStr(Out, O);
  return Out;
}

bool server::deserializeRequest(const uint8_t *Data, size_t Len, Request &R) {
  Cursor C(Data, Len);
  uint32_t N;
  if (!C.u32(N))
    return false;
  R.Sources.clear();
  for (uint32_t I = 0; I < N; ++I) {
    AppSource S;
    uint8_t Inline;
    if (!C.str(S.Name) || !C.u8(Inline) || !C.str(S.Content))
      return false;
    S.Inline = Inline != 0;
    R.Sources.push_back(std::move(S));
  }
  if (!C.u32(N))
    return false;
  R.Overrides.clear();
  for (uint32_t I = 0; I < N; ++I) {
    std::string O;
    if (!C.str(O))
      return false;
    R.Overrides.push_back(std::move(O));
  }
  return C.done();
}

std::vector<uint8_t> server::serializeResponse(const Response &R) {
  std::vector<uint8_t> Out;
  Out.push_back(static_cast<uint8_t>(R.St));
  putU32(Out, static_cast<uint32_t>(R.Exit));
  putU64(Out, R.Issues);
  putStr(Out, R.Report);
  putStr(Out, R.Diag);
  putStr(Out, R.StatsJson);
  putStr(Out, R.TraceBlob);
  putStr(Out, R.Message);
  return Out;
}

bool server::deserializeResponse(const uint8_t *Data, size_t Len,
                                 Response &R) {
  Cursor C(Data, Len);
  uint8_t St;
  uint32_t Exit;
  if (!C.u8(St) || St > static_cast<uint8_t>(Status::ProtocolError) ||
      !C.u32(Exit) || !C.u64(R.Issues) || !C.str(R.Report) ||
      !C.str(R.Diag) || !C.str(R.StatsJson) || !C.str(R.TraceBlob) ||
      !C.str(R.Message))
    return false;
  R.St = static_cast<Status>(St);
  R.Exit = static_cast<int32_t>(Exit);
  return C.done();
}

bool server::writeFull(int Fd, const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Len > 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    // write() returning 0 on a nonzero count would loop forever; treat it
    // as an error like sendmsg does.
    if (N == 0)
      return false;
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool server::readFull(int Fd, void *Data, size_t Len) {
  uint8_t *P = static_cast<uint8_t *>(Data);
  while (Len > 0) {
    ssize_t N = ::read(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF mid-frame
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

namespace {
void encodeFrameHeader(uint8_t Hdr[8], uint32_t Len) {
  const uint32_t Magic = FrameMagic;
  std::memcpy(Hdr, &Magic, 4);
  Hdr[4] = static_cast<uint8_t>(Len);
  Hdr[5] = static_cast<uint8_t>(Len >> 8);
  Hdr[6] = static_cast<uint8_t>(Len >> 16);
  Hdr[7] = static_cast<uint8_t>(Len >> 24);
}
} // namespace

bool server::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint8_t Hdr[8];
  encodeFrameHeader(Hdr, static_cast<uint32_t>(Payload.size()));
  return writeFull(Fd, Hdr, sizeof(Hdr)) &&
         (Payload.empty() || writeFull(Fd, Payload.data(), Payload.size()));
}

bool server::appendFrame(std::string &Out, const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint8_t Hdr[8];
  encodeFrameHeader(Hdr, static_cast<uint32_t>(Payload.size()));
  Out.append(reinterpret_cast<const char *>(Hdr), sizeof(Hdr));
  if (!Payload.empty())
    Out.append(reinterpret_cast<const char *>(Payload.data()), Payload.size());
  return true;
}

bool server::readFrame(int Fd, std::vector<uint8_t> &Payload) {
  uint8_t Hdr[8];
  if (!readFull(Fd, Hdr, sizeof(Hdr)))
    return false;
  uint32_t Magic;
  std::memcpy(&Magic, Hdr, 4);
  if (Magic != FrameMagic)
    return false;
  const uint32_t Len = static_cast<uint32_t>(Hdr[4]) |
                       (static_cast<uint32_t>(Hdr[5]) << 8) |
                       (static_cast<uint32_t>(Hdr[6]) << 16) |
                       (static_cast<uint32_t>(Hdr[7]) << 24);
  if (Len > MaxFrameBytes)
    return false;
  Payload.resize(Len);
  return Len == 0 || readFull(Fd, Payload.data(), Len);
}
