// Copyright (c) NetKernel reproduction authors.
// Counter tables: the one place a stats struct's counters are named.
//
// Each exported stats struct (CoreEngineStats, PerVmStats, GuardStats,
// GuardVmStats, TcpStackStats, UdpStackStats, Host::FailoverStats) holds only
// uint64_t counters and has a constexpr CounterRow table next to it. The
// metrics registry registers a table in one loop and CoreEngine sums its
// shards over one, so a counter exists, and is exported under its name,
// exactly when it has a row. A static_assert over CoversEveryField makes a
// struct and its table agree at compile time.
//
// Dependency-free on purpose: the stacks and the guard include it without
// depending on src/obs.

#ifndef SRC_COMMON_COUNTERS_H_
#define SRC_COMMON_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace netkernel {

template <typename Stats>
struct CounterRow {
  const char* name;  // metric suffix; the registry prepends the instance prefix
  uint64_t Stats::*field;
  const char* help = "";
};

// True when `rows` names every field of `Stats` exactly once: as many rows as
// the struct has counters (a field without a row, or a row too many, changes
// the count) and no member pointer twice.
template <typename Stats, size_t N>
constexpr bool CoversEveryField(const CounterRow<Stats> (&rows)[N]) {
  if (sizeof(Stats) != N * sizeof(uint64_t)) return false;
  for (size_t i = 0; i < N; ++i) {
    for (size_t j = i + 1; j < N; ++j) {
      if (rows[i].field == rows[j].field) return false;
    }
  }
  return true;
}

// Adds every counter of `from` into `*into`.
template <typename Stats, size_t N>
void AddCounters(const CounterRow<Stats> (&rows)[N], const Stats& from, Stats* into) {
  for (const CounterRow<Stats>& row : rows) into->*row.field += from.*row.field;
}

}  // namespace netkernel

#endif  // SRC_COMMON_COUNTERS_H_
