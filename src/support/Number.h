//===- support/Number.h - Strict numeric text parsing ----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reading of a number that taj-cli's numeric flags and the TAJ_*
/// environment knobs share: the whole text must be a finite non-negative
/// number (strtod syntax), and an integer setting must also be integral
/// and in range. "--fail-at=abc", "TAJ_HARD_DEADLINE_MS=-5", "64abc" and
/// "inf" are refused, never read as 0, as their numeric prefix or as
/// infinity. Flags turn a refusal into a usage error (server::parseNum /
/// parseUInt); a variable that is refused counts as unset. mebibytes() is
/// the one conversion of a MiB setting to bytes.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_NUMBER_H
#define TAJ_SUPPORT_NUMBER_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace taj {

/// Counter-like integer settings stay within double's exact-integer range,
/// so the strtod round trip cannot quietly lose precision.
constexpr uint64_t MaxExactU64 = 1ull << 53;

/// The bound of every MiB setting (--max-memory-mb, --cache-max-mb,
/// --hot-max-mb, TAJ_MAX_MEMORY_MB, TAJ_HARD_MAX_MEMORY_MB): below 2^43
/// MiB, so its byte count and the supervisor's doubled memory backstop
/// both fit in 64 bits.
constexpr uint64_t MaxMebibytes = (1ull << 43) - 1;

/// \p Mb MiB in bytes; a count past MaxMebibytes counts as MaxMebibytes.
constexpr uint64_t mebibytes(uint64_t Mb) {
  return (Mb < MaxMebibytes ? Mb : MaxMebibytes) << 20;
}

/// Outcome of a strict parse.
enum class NumberParse {
  Ok,
  Malformed,  ///< unset, empty, trailing text, negative, inf or nan
  OutOfRange, ///< a number, but not an integer in 0..Max
};

/// \p Text (null counts as malformed) as a fully consumed, finite,
/// non-negative number. \p Out is written only on success.
inline NumberParse parseNumber(const char *Text, double &Out) {
  if (!Text || *Text == '\0')
    return NumberParse::Malformed;
  char *End = nullptr;
  const double V = std::strtod(Text, &End);
  if (*End != '\0' || !std::isfinite(V) || V < 0)
    return NumberParse::Malformed;
  Out = V;
  return NumberParse::Ok;
}

/// parseNumber restricted to an integer in 0..\p Max, range-checked before
/// the narrowing cast.
inline NumberParse parseInteger(const char *Text, uint64_t Max,
                                uint64_t &Out) {
  double V;
  if (NumberParse R = parseNumber(Text, V); R != NumberParse::Ok)
    return R;
  if (V != std::floor(V) || V > static_cast<double>(Max))
    return NumberParse::OutOfRange;
  Out = static_cast<uint64_t>(V);
  return NumberParse::Ok;
}

/// The shortest text that parseNumber reads back as exactly \p V.
inline std::string formatNumber(double V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace taj

#endif // TAJ_SUPPORT_NUMBER_H
