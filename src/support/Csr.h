//===- support/Csr.h - Compressed sparse rows from an entry log -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders append (row, value) entries to one log as they discover them;
/// csrFromLog turns the log into an offset column plus one flat value
/// column, row R's values being Out[Off[R] .. Off[R+1]).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_CSR_H
#define TAJ_SUPPORT_CSR_H

#include <cstdint>
#include <vector>

namespace taj {

/// Stable counting sort of the log (\p Rows[I], \p Vals[I]) into \p Off
/// (\p NumRows + 1 offsets) and \p Out: each row keeps its values in log
/// order. Every row id must be below \p NumRows.
template <typename T>
void csrFromLog(const std::vector<uint32_t> &Rows, const std::vector<T> &Vals,
                size_t NumRows, std::vector<uint32_t> &Off,
                std::vector<T> &Out) {
  Off.assign(NumRows + 1, 0);
  for (uint32_t R : Rows)
    ++Off[R + 1];
  for (size_t R = 0; R < NumRows; ++R)
    Off[R + 1] += Off[R];
  std::vector<uint32_t> Next(Off.begin(), Off.end() - 1);
  Out.resize(Vals.size());
  for (size_t I = 0; I < Vals.size(); ++I)
    Out[Next[Rows[I]]++] = Vals[I];
}

} // namespace taj

#endif // TAJ_SUPPORT_CSR_H
