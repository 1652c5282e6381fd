// Tests of the benchmark's own pieces: seeded scripts, the fastest-rounds
// estimator, the independent digest check and the host-speed reference.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cerrno>

#include <set>
#include <string>
#include <vector>

#include "digest_check.hpp"
#include "oci/oci.hpp"
#include "reference.hpp"
#include "script.hpp"
#include "stats.hpp"

using namespace lifecycle;

namespace {

constexpr std::size_t kApps = 11;

TEST(Script, SameSeedSameScript) {
  for (std::uint64_t round : {1u, 2u, 17u}) {
    EXPECT_EQ(round_order(42, round, kApps), round_order(42, round, kApps));
    EXPECT_EQ(request_script(42, round, kApps), request_script(42, round, kApps));
    for (const Lifecycle& lc : round_order(42, round, kApps)) {
      EXPECT_EQ(edited_unit(42, round, lc, 5), edited_unit(42, round, lc, 5));
      EXPECT_EQ(chosen_input(42, round, lc, 3), chosen_input(42, round, lc, 3));
    }
  }
}

TEST(Script, DifferentSeedDifferentScript) {
  EXPECT_NE(round_order(1, 1, kApps), round_order(2, 1, kApps));
  EXPECT_NE(request_script(1, 1, kApps), request_script(2, 1, kApps));
  std::vector<std::size_t> units_a, units_b;
  for (const Lifecycle& lc : round_order(1, 1, kApps)) {
    units_a.push_back(edited_unit(1, 1, lc, 7));
    units_b.push_back(edited_unit(2, 1, lc, 7));
  }
  EXPECT_NE(units_a, units_b);
  std::vector<std::size_t> inputs_a, inputs_b;
  for (const Lifecycle& lc : round_order(1, 1, kApps)) {
    inputs_a.push_back(chosen_input(1, 1, lc, 3));
    inputs_b.push_back(chosen_input(2, 1, lc, 3));
  }
  EXPECT_NE(inputs_a, inputs_b);
}

TEST(Script, InputsRotateByRound) {
  const Lifecycle lc{4, 1};
  std::vector<int> used(3, 0);
  for (std::uint64_t round = 1; round <= 9; ++round) ++used[chosen_input(77, round, lc, 3)];
  EXPECT_EQ(used, std::vector<int>({3, 3, 3}));
}

TEST(Script, RoundCoversEveryLifecycleOnce) {
  std::vector<Lifecycle> order = round_order(9, 3, kApps);
  ASSERT_EQ(order.size(), kApps * kSystems);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const Lifecycle& lc : order) seen.insert({lc.app, lc.system});
  EXPECT_EQ(seen.size(), kApps * kSystems);
}

TEST(Script, RequestMakeUpIsFixed) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<Request> script = request_script(seed, 5, kApps);
    ASSERT_EQ(script.size(), kApps * kSystems + kDuplicatesPerRound);
    EXPECT_FALSE(script.front().duplicate);
    for (std::size_t i = 0; i < script.size(); ++i) {
      EXPECT_LT(script[i].tenant, kTenants);
      if (!script[i].duplicate) continue;
      // A duplicate directly follows its original, from another tenant.
      EXPECT_FALSE(script[i - 1].duplicate);
      EXPECT_EQ(script[i].lifecycle, script[i - 1].lifecycle);
      EXPECT_NE(script[i].tenant, script[i - 1].tenant);
    }
  }
}

TEST(Estimator, FastestRoundsIgnoresSlowSpells) {
  // 40 rounds of 100 ms work with ±1% jitter; slow spells make 24 of them
  // (60%) 40-60% slower, in runs of consecutive rounds.
  Rng rng(7);
  std::vector<double> rounds;
  for (int i = 0; i < 40; ++i) {
    double value = 100.0 * (0.99 + 0.02 * static_cast<double>(rng.below(1000)) / 1000.0);
    const bool slow = (i / 4) % 5 != 0 && (i / 4) % 5 != 2;  // 3 of every 5 blocks
    if (slow) value *= 1.4 + 0.2 * static_cast<double>(rng.below(1000)) / 1000.0;
    rounds.push_back(value);
  }
  EXPECT_NEAR(fastest_rounds(rounds), 100.0, 1.5);
  EXPECT_GT(median(rounds), 130.0);  // the plain median is dragged by the spells
}

TEST(Estimator, SmallAndEmptySamples) {
  EXPECT_EQ(fastest_rounds({}), 0.0);
  EXPECT_EQ(fastest_rounds({5.0}), 5.0);
  EXPECT_EQ(fastest_rounds({9.0, 3.0}), 6.0);
  EXPECT_EQ(fastest_rounds({4.0, 1.0, 2.0, 3.0, 50.0}), 2.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(DigestCheck, MatchesTheProgramsDigest) {
  const std::string blob = "layer bytes\n";
  EXPECT_EQ(openssl_sha256(""),
            "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  comt::oci::Descriptor descriptor;
  descriptor.digest = comt::oci::Digest::of_blob(blob);
  descriptor.size = blob.size();
  EXPECT_EQ(check_blob(blob, descriptor), "");
}

TEST(DigestCheck, CatchesAFlippedByte) {
  std::string blob(4096, 'a');
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>(i * 31);
  comt::oci::Descriptor descriptor;
  descriptor.digest = comt::oci::Digest::of_blob(blob);
  descriptor.size = blob.size();
  for (std::size_t at : {std::size_t{0}, std::size_t{2048}, blob.size() - 1}) {
    std::string damaged = blob;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    EXPECT_NE(check_blob(damaged, descriptor), "") << "flip at " << at;
  }
  EXPECT_NE(check_blob(blob.substr(1), descriptor), "");
}

TEST(Reference, RunsInAChildAndEndsIt) {
  {
    Reference reference;
    ASSERT_TRUE(reference.started());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(reference.run());
    for (double part : reference.part_ms()) EXPECT_GT(part, 0.0);
    EXPECT_GT(reference.ms(), 0.0);
  }
  // The destructor waited for the reference process: no child is left.
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
