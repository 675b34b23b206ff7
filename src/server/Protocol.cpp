//===- server/Protocol.cpp - Analysis-server wire protocol ----------------===//

#include "server/Protocol.h"

#include "persist/Serialize.h"

#include <cerrno>

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

Status server::statusFromExitClass(ExitClass C) {
  switch (C) {
  case ExitClass::Clean:
    return Status::Ok;
  case ExitClass::Truncated:
    return Status::Truncated;
  case ExitClass::Error:
    return Status::Error;
  case ExitClass::Crashed:
    return Status::Crashed;
  case ExitClass::Timeout:
    return Status::Timeout;
  case ExitClass::Oom:
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

std::vector<uint8_t> server::serializeRequest(const Request &R) {
  persist::Writer W;
  W.u32(static_cast<uint32_t>(R.Sources.size()));
  for (const AppSource &S : R.Sources) {
    W.str(S.Name);
    W.u8(S.Inline ? 1 : 0);
    W.str(S.Content);
  }
  W.u32(static_cast<uint32_t>(R.Overrides.size()));
  for (const std::string &O : R.Overrides)
    W.str(O);
  return W.take();
}

bool server::deserializeRequest(const uint8_t *Data, size_t Len, Request &R) {
  persist::Reader In(Data, Len);
  // A source is at least its two string lengths and the inline byte, an
  // override its length: a count the payload cannot hold fails up front.
  R.Sources.assign(In.count(9), AppSource());
  for (AppSource &S : R.Sources) {
    S.Name = In.str();
    S.Inline = In.u8() != 0;
    S.Content = In.str();
  }
  R.Overrides.assign(In.count(4), std::string());
  for (std::string &O : R.Overrides)
    O = In.str();
  return !In.failed() && In.atEnd();
}

std::vector<uint8_t> server::serializeResponse(const Response &R) {
  persist::Writer W;
  W.u8(static_cast<uint8_t>(R.St));
  W.i32(R.Exit);
  W.u64(R.Issues);
  W.str(R.Report);
  W.str(R.Diag);
  W.str(R.StatsJson);
  W.str(R.TraceBlob);
  W.str(R.Message);
  return W.take();
}

bool server::deserializeResponse(const uint8_t *Data, size_t Len,
                                 Response &R) {
  persist::Reader In(Data, Len);
  const uint8_t St = In.u8();
  R.Exit = In.i32();
  R.Issues = In.u64();
  R.Report = In.str();
  R.Diag = In.str();
  R.StatsJson = In.str();
  R.TraceBlob = In.str();
  R.Message = In.str();
  if (In.failed() || !In.atEnd() ||
      St > static_cast<uint8_t>(Status::ProtocolError))
    return false;
  R.St = static_cast<Status>(St);
  return true;
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

constexpr size_t FrameHeaderBytes = 8;

/// The announced payload length of the header at \p Hdr; false on a bad
/// magic or a length over MaxFrameBytes.
bool decodeFrameHeader(const uint8_t *Hdr, uint32_t &Len) {
  persist::Reader In(Hdr, FrameHeaderBytes);
  const uint32_t Magic = In.u32();
  Len = In.u32();
  return Magic == FrameMagic && Len <= MaxFrameBytes;
}

} // namespace

bool server::appendFrame(std::string &Out,
                         const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  // The header: the magic, then the payload length, both u32 LE.
  for (const uint32_t V : {FrameMagic, static_cast<uint32_t>(Payload.size())})
    for (int K = 0; K < 4; ++K)
      Out.push_back(static_cast<char>(V >> (8 * K)));
  if (!Payload.empty())
    Out.append(reinterpret_cast<const char *>(Payload.data()), Payload.size());
  return true;
}

bool server::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  std::string Frame;
  return appendFrame(Frame, Payload) &&
         writeFull(Fd, Frame.data(), Frame.size());
}

bool server::readFrame(int Fd, std::vector<uint8_t> &Payload) {
  uint8_t Hdr[FrameHeaderBytes];
  uint32_t Len;
  if (!readFull(Fd, Hdr, sizeof(Hdr)) || !decodeFrameHeader(Hdr, Len))
    return false;
  Payload.resize(Len);
  return Len == 0 || readFull(Fd, Payload.data(), Len);
}

bool server::takeFrame(std::string &Buf, std::vector<uint8_t> &Payload,
                       bool &Bad) {
  Bad = false;
  if (Buf.size() < FrameHeaderBytes)
    return false;
  const uint8_t *B = reinterpret_cast<const uint8_t *>(Buf.data());
  uint32_t Len;
  if (!decodeFrameHeader(B, Len)) {
    Bad = true;
    return false;
  }
  const size_t End = FrameHeaderBytes + static_cast<size_t>(Len);
  if (Buf.size() < End)
    return false;
  Payload.assign(B + FrameHeaderBytes, B + End);
  Buf.erase(0, End);
  return true;
}
