// Seeded inputs of the lifecycle benchmark: the order lifecycles run in, the
// one-line edit each republish makes, the input a node runs, and the update
// request script. Everything here is a pure function of (seed, round), so
// the same seed replays the same traffic and the program under test only
// ever sees the generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lifecycle {

/// splitmix64 stream — the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n must be > 0.
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, salt…).
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0);

/// Both target systems are in every round.
inline constexpr std::size_t kSystems = 2;

/// One lifecycle: one corpus app published for, rebuilt on and deployed to
/// one target system.
struct Lifecycle {
  std::size_t app = 0;
  std::size_t system = 0;
  bool operator==(const Lifecycle&) const = default;
};

/// A round: every app × system pair exactly once, in a seeded order.
std::vector<Lifecycle> round_order(std::uint64_t seed, std::uint64_t round,
                                   std::size_t apps);

/// Edit rule: the republish of `lc` in round `round` edits exactly one line
/// (the revision comment) of this translation unit, out of `units`.
std::size_t edited_unit(std::uint64_t seed, std::uint64_t round, const Lifecycle& lc,
                        std::size_t units);

/// The workload input (out of `inputs`) the node runs the deployed image
/// with when measuring its run time: a seeded start, rotating by round.
std::size_t chosen_input(std::uint64_t seed, std::uint64_t round, const Lifecycle& lc,
                         std::size_t inputs);

/// Update request make-up: three tenants, and a fixed number of requests per
/// round that duplicate a ticket in flight.
inline constexpr std::size_t kTenants = 3;
inline constexpr std::size_t kDuplicatesPerRound = 6;

struct Request {
  Lifecycle lifecycle;
  std::size_t tenant = 0;
  /// Resubmits the request just before it while that ticket is in flight.
  bool duplicate = false;
  bool operator==(const Request&) const = default;
};

/// One update round: the round's lifecycles in round_order, each from a
/// seeded tenant; kDuplicatesPerRound of them (seeded) are followed directly
/// by a duplicate from a different tenant.
std::vector<Request> request_script(std::uint64_t seed, std::uint64_t round, std::size_t apps);

std::string tenant_name(std::size_t tenant);

}  // namespace lifecycle
