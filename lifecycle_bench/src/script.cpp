#include "script.hpp"

#include <algorithm>

namespace lifecycle {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng rng(seed);
  std::uint64_t out = rng.next();
  for (std::uint64_t salt : {a, b, c}) out = Rng(out ^ (salt * 0xd6e8feb86659fd93ULL)).next();
  return out;
}

std::vector<Lifecycle> round_order(std::uint64_t seed, std::uint64_t round, std::size_t apps) {
  std::vector<Lifecycle> order;
  for (std::size_t app = 0; app < apps; ++app) {
    for (std::size_t system = 0; system < kSystems; ++system) order.push_back({app, system});
  }
  Rng rng(derive(seed, 1, round));
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::size_t edited_unit(std::uint64_t seed, std::uint64_t round, const Lifecycle& lc,
                        std::size_t units) {
  return Rng(derive(seed, 2, round, lc.app * kSystems + lc.system)).below(units);
}

std::size_t chosen_input(std::uint64_t seed, std::uint64_t round, const Lifecycle& lc,
                         std::size_t inputs) {
  // A seeded starting input, then one step per round: over a run every
  // input of an app is used about equally often, whatever the seed.
  const std::size_t offset = Rng(derive(seed, 3, lc.app * kSystems + lc.system)).below(inputs);
  return (offset + static_cast<std::size_t>(round % inputs)) % inputs;
}

std::vector<Request> request_script(std::uint64_t seed, std::uint64_t round, std::size_t apps) {
  std::vector<Lifecycle> order = round_order(seed, round, apps);
  Rng rng(derive(seed, 4, round));
  // Choose which positions get a duplicate: a seeded sample of fixed size,
  // so every round carries the same share of duplicate requests.
  std::vector<std::size_t> positions(order.size());
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  for (std::size_t i = positions.size(); i > 1; --i) {
    std::swap(positions[i - 1], positions[rng.below(i)]);
  }
  std::vector<bool> duplicated(order.size(), false);
  for (std::size_t i = 0; i < std::min(kDuplicatesPerRound, positions.size()); ++i) {
    duplicated[positions[i]] = true;
  }
  std::vector<Request> script;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t tenant = rng.below(kTenants);
    script.push_back({order[i], tenant, false});
    if (duplicated[i]) {
      script.push_back({order[i], (tenant + 1 + rng.below(kTenants - 1)) % kTenants, true});
    }
  }
  return script;
}

std::string tenant_name(std::size_t tenant) { return "tenant" + std::to_string(tenant); }

}  // namespace lifecycle
