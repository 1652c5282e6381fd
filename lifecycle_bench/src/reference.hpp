// Host-speed reference. On a shared host the benchmark's timings drift with
// other tenants' load, by 10-20% between runs minutes apart, and the drift
// holds for tens of seconds, so no choice of rounds inside one run removes
// it. The reference is fixed work that uses none of the program's code or
// memory: sorting short strings, probing a hash table, copying 32 MiB and
// formatting records, in a child process forked before any thread starts.
// Run between rounds while the benchmark waits for it, it slows down with the
// host. The run's timings are scaled by kReferenceNominalMs / (the
// reference's time in this run), i.e. reported as if the host ran the
// reference in the nominal time.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstddef>
#include <vector>

namespace lifecycle {

/// The reference's time on this host when it is quiet (see README.md). Only
/// the scale of the reported timings depends on it, not their spread.
inline constexpr double kReferenceNominalMs = 20.0;

class Reference {
 public:
  static constexpr std::size_t kParts = 4;

  /// Forks the reference process. Call before any thread is started.
  Reference();
  /// Ends the reference process and waits for it.
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// False when the reference process could not be started.
  bool started() const { return child_ > 0; }

  /// Runs every part once in the reference process and records the times.
  /// False when the reference process did not answer.
  bool run();

  /// Geometric mean over the parts of each part's fastest-rounds time.
  double ms() const;
  /// Each part's fastest-rounds time, in ms.
  std::array<double, kParts> part_ms() const;

 private:
  std::array<std::vector<double>, kParts> samples_;
  pid_t child_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace lifecycle
