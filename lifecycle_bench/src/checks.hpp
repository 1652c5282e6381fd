// What runs after a round's timing, outside every metric: the correctness
// checks, and in traced runs the per-layer probes that time the
// benchmark's own direct calls into each module's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oci/oci.hpp"
#include "rounds.hpp"
#include "sched/thread_pool.hpp"
#include "world.hpp"

namespace lifecycle {

/// Per-layer samples gathered from traced rounds.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  /// Accumulates a rate or ratio as Σnumerator / Σdenominator.
  void add_ratio(const std::string& name, double numerator, double denominator) {
    auto& [num, den] = ratios_[name];
    num += numerator;
    den += denominator;
  }
  /// Median of a sample, or a ratio's quotient; 0 when nothing was recorded.
  double value(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// What checking a round found besides check failures.
struct Checked {
  /// Geometric-mean simulated run time of the round's deployed images.
  double app_runtime_s = 0;
  /// Unchanged resubmits made (update) and those that compiled anything:
  /// operations of the round, counted with its lifecycles. Only the known
  /// `ar` fault fails one without failing a check.
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Checker {
 public:
  Checker(Mix mix, std::uint64_t seed);
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Runs every check on the round's successful lifecycles. In update, each
  /// lifecycle's unchanged image is resubmitted once, an operation that
  /// fails when it compiles anything; a miss other than the known `ar` fault
  /// also fails a check. With `probes`, also times direct calls into each
  /// layer.
  Checked check_round(World& world, const Round& round, LayerSamples* probes);

  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void fail(const Outcome& out, const std::string& what);
  void check_pulled_blobs(World& world, const Outcome& out, LayerSamples* probes);
  /// The deployed digest a direct single-threaded rebuild + redirect of the
  /// same extended image gives, and the generic image's run time.
  void check_against_direct(World& world, const Outcome& out, std::size_t input,
                            double& generic_seconds, LayerSamples* probes);
  void probe_layers(const comt::oci::Layout& layout, const Outcome& out, LayerSamples& probes);
  /// Edit-miss check; returns whether the unchanged resubmit compiled nothing.
  bool check_edit(World& world, const Outcome& out);

  Mix mix_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  std::vector<std::string> failures_;
  /// Direct results keyed by extended-image digest and system: unchanged
  /// images (every fresh round) are rebuilt directly only once.
  std::map<std::string, comt::oci::Digest> expected_;
  std::map<std::string, double> generic_seconds_;
  /// Pool-dispatch probe; one worker, so probes never add to the load.
  std::unique_ptr<comt::sched::ThreadPool> pool_;
};

}  // namespace lifecycle
