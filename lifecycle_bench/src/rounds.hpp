// Rounds of the three traffic mixes. A round runs every app × system
// lifecycle once; only the lifecycles themselves are timed, never the reset
// before a round or the checks and housekeeping after it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "script.hpp"
#include "service/service.hpp"
#include "world.hpp"

namespace lifecycle {

enum class Mix { fresh, update };

/// One lifecycle's record, for the metrics and the checks.
struct Outcome {
  Lifecycle lc;
  std::string tag;     ///< hub tag of the extended image ("v<round>")
  std::string output;  ///< "name:tag" of the service's rebuilt image
  double publish_ms = 0;
  /// Ticket submit → succeeded, as the waiting client sees it.
  double transform_ms = 0;
  double deploy_ms = 0;
  LayerTimes layers;
  comt::service::JobTrace trace;
  comt::oci::Digest deployed;  ///< the node's "+opt" manifest digest
  std::string error;           ///< empty when every step succeeded
};

struct Round {
  std::uint64_t index = 0;
  bool traced = false;
  std::vector<Outcome> outcomes;  ///< one per lifecycle, in run order
  std::size_t attempted = 0;      ///< requests made, duplicates included
  std::size_t failed = 0;
  /// The timed part of the round: publish → transform → deploy, without
  /// preparing build contexts and build machines.
  double wall_s = 0;
  std::uint64_t wire_bytes = 0;     ///< hub traffic during the timed part
  std::uint64_t hub_growth = 0;     ///< hub backing-store growth, same span
  std::size_t images_stored = 0;    ///< extended + rebuilt images pushed
  std::uint64_t tickets = 0;        ///< ServiceStats::submitted, same span
  std::uint64_t coalesced = 0;      ///< ServiceStats::coalesced, same span
};

/// One world and the version history its lifecycles carry. The traced run
/// keeps two lanes (untraced and traced) and alternates rounds between them.
struct Lane {
  std::unique_ptr<World> world;
  comt::obs::Tracer* tracer = nullptr;
  /// Revision number per translation unit, per lifecycle (app × system).
  std::vector<std::vector<int>> revisions;
  std::uint64_t version = 0;  ///< the version the hub and nodes hold
};

std::string version_tag(std::uint64_t version);

/// Builds the lane's world and brings it to the state the mix's rounds
/// start from: base images only (fresh), or every lifecycle published,
/// transformed and deployed once (update).
comt::Status setup_lane(Lane& lane, Mix mix);

/// Runs round `index` on the lane: resets first for fresh, retires the
/// previous version afterwards for update.
Round run_round(Lane& lane, Mix mix, std::uint64_t seed, std::uint64_t index);

}  // namespace lifecycle
