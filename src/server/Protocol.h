//===- server/Protocol.h - Analysis-server wire protocol -------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol the analysis server speaks over
/// its Unix-domain socket (and the daemon speaks to its pool workers over
/// socketpairs — one protocol, two transports).
///
/// Framing: every message is one frame — a fixed 8-byte header (4-byte
/// magic "TAJ1", u32 LE payload length) followed by the payload. Payload
/// length is capped at MaxFrameBytes (64 MiB); a peer announcing more is
/// a protocol error and the connection is dropped. All reads and writes
/// go through readFull/writeFull, which retry on EINTR and short
/// transfers — a frame either arrives whole or the connection is dead.
///
/// Payload encoding: the artifact store's byte codec (persist::Writer /
/// Reader): little-endian scalars and length-prefixed strings (u32 LE
/// count, then that many bytes), written/read in fixed order by the
/// serialize/deserialize pairs below. No escaping, no text parsing: report
/// bytes and stats JSON pass through opaquely, which is what keeps
/// server-mode output byte-identical to batch-mode output.
///
/// Status codes: the six-way worker exit classification (ExitClass, see
/// server/Journal.h) maps 1:1 onto the first six codes, so a client sees
/// exactly what a batch journal would record; the remaining codes are
/// server-side dispositions (admission control, drain, malformed
/// requests).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_PROTOCOL_H
#define TAJ_SERVER_PROTOCOL_H

#include "server/Journal.h"
#include "server/Service.h"

#include <cstdint>
#include <string>
#include <vector>

namespace taj {
namespace server {

/// Frame cap: a request carries inline sources and a response carries a
/// rendered report + stats + trace blob; 64 MiB bounds a hostile or
/// corrupt peer without constraining any realistic app.
constexpr uint32_t MaxFrameBytes = 64u * 1024 * 1024;

/// Frame magic ("TAJ1"), little-endian on the wire.
constexpr uint32_t FrameMagic = 0x314a4154u;

/// Response disposition. The first six mirror ExitClass; the rest are
/// server-level outcomes that never reach a worker.
enum class Status : uint8_t {
  Ok = 0,        ///< worker exited 0: clean run, report attached
  Truncated = 1, ///< worker exited 2: degraded run, partial report attached
  Error = 2,     ///< worker exited nonzero: analysis/input error
  Crashed = 3,   ///< worker died on a signal (retries exhausted)
  Timeout = 4,   ///< watchdog killed the worker (retries exhausted)
  Oom = 5,       ///< worker hit the memory ceiling (retries exhausted)
  Busy = 6,      ///< admission queue full, request not enqueued
  ShuttingDown = 7, ///< daemon draining, request not enqueued
  BadRequest = 8,   ///< request decoded but invalid (bad flag, no sources)
  ProtocolError = 9, ///< frame/payload undecodable
};

const char *statusName(Status S);

/// Maps a worker exit classification onto the wire status.
Status statusFromExitClass(ExitClass C);

/// The taj-cli exit code for \p S: Ok -> 0, Truncated -> 2, everything
/// else -> 1. Through statusFromExitClass it is also a worker outcome's
/// contribution to a batch's worst-of exit code, so a client and a batch
/// agree on what every outcome exits with.
int exitCodeForStatus(Status S);

/// One analysis request: an app (either file paths the *server* host can
/// read, or inline source bytes shipped by the client) plus per-request
/// config overrides in the canonical encodeRunOptions() flag form.
struct Request {
  std::vector<AppSource> Sources;
  std::vector<std::string> Overrides;
};

/// One analysis response. Report/Diag/StatsJson/TraceBlob are present
/// (possibly empty) for statuses that ran a worker; Message carries a
/// human-readable diagnostic for refusals.
struct Response {
  Status St = Status::Error;
  int32_t Exit = ExitError;
  uint64_t Issues = 0;
  std::string Report;    ///< exact bytes the run printed to stdout
  std::string Diag;      ///< exact bytes the run printed to stderr
  std::string StatsJson; ///< merged per-request counters as one JSON object
  std::string TraceBlob; ///< comma-joined trace events (merge unit), or empty
  std::string Message;   ///< diagnostic for refusals / failures
};

std::vector<uint8_t> serializeRequest(const Request &R);
bool deserializeRequest(const uint8_t *Data, size_t Len, Request &R);
std::vector<uint8_t> serializeResponse(const Response &R);
bool deserializeResponse(const uint8_t *Data, size_t Len, Response &R);

/// Writes all \p Len bytes of \p Data to \p Fd, retrying on EINTR and
/// short writes. False on any hard write error (including EPIPE — SIGPIPE
/// is ignored process-wide in the CLI).
bool writeFull(int Fd, const void *Data, size_t Len);

/// Reads exactly \p Len bytes, retrying on EINTR and short reads. False
/// on EOF or error.
bool readFull(int Fd, void *Data, size_t Len);

/// Sends one frame (header + payload). False on write failure or an
/// oversized payload.
bool writeFrame(int Fd, const std::vector<uint8_t> &Payload);

/// Appends one frame (header + payload) to \p Out, for senders that must
/// buffer instead of blocking on the fd. False on an oversized payload
/// (\p Out unchanged).
bool appendFrame(std::string &Out, const std::vector<uint8_t> &Payload);

/// Receives one frame payload. False on EOF, read error, bad magic or an
/// oversized announced length.
bool readFrame(int Fd, std::vector<uint8_t> &Payload);

/// The non-blocking receive side: moves one complete frame's payload from
/// the front of \p Buf into \p Payload. False while the frame is still
/// incomplete; \p Bad flags a stream that can never yield one (bad magic,
/// oversized announced length) and must be dropped.
bool takeFrame(std::string &Buf, std::vector<uint8_t> &Payload, bool &Bad);

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_PROTOCOL_H
