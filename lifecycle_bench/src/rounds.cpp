#include "rounds.hpp"

#include <optional>

#include "obs/stopwatch.hpp"

namespace lifecycle {

using namespace comt;

namespace {

std::size_t lifecycle_slot(const Lifecycle& lc) { return lc.app * kSystems + lc.system; }

std::string base_reference(const Lifecycle& lc, std::uint64_t previous, bool fresh) {
  if (fresh) return "comt/base:" + site(lc.system).profile->arch;
  return repository(lc) + ":" + version_tag(previous);
}

bool succeeded(const Result<service::TicketStatus>& status) {
  return status.ok() && status.value().state == service::JobState::succeeded;
}

std::string describe(const Result<service::TicketStatus>& status) {
  if (!status.ok()) return status.error().to_string();
  std::string text = service::to_string(status.value().state);
  if (!status.value().result.ok()) text += ": " + status.value().result.error().to_string();
  return text;
}

/// Publish → transform → deploy, the client waiting on each step. A request
/// with a `duplicate` tenant is resubmitted by that tenant right after the
/// original, while the original's ticket is in flight, so the service
/// coalesces the two; the client then waits on both.
Outcome run_lifecycle(World& world, const Lifecycle& lc, const vfs::Filesystem& context,
                      const std::string& tag, const std::string& base, std::size_t tenant,
                      std::optional<std::size_t> duplicate) {
  Outcome out;
  out.lc = lc;
  out.tag = tag;
  obs::Span root = obs::maybe_span(world.tracer(), "lifecycle", obs::kNoSpan, "lifecycle");
  auto published = world.publish(lc, context, tag, base, out.layers, root.id());
  if (!published.ok()) {
    out.error = "publish: " + published.error().to_string();
    return out;
  }
  out.publish_ms = published.value();

  obs::Stopwatch transform;
  obs::Span span = obs::maybe_span(world.tracer(), "lifecycle.transform", root.id(), "transform");
  auto ticket = world.submit(lc, tag, tenant_name(tenant));
  if (!ticket.ok()) {
    out.error = "submit: " + ticket.error().to_string();
    return out;
  }
  Result<service::Ticket> second = make_error(Errc::failed, "no duplicate");
  if (duplicate) second = world.submit(lc, tag, tenant_name(*duplicate));
  auto status = world.service().wait(ticket.value());
  out.transform_ms = transform.elapsed_ms();
  span.end();
  if (!succeeded(status)) {
    out.error = "transform: " + describe(status);
    return out;
  }
  out.trace = status.value().trace;
  out.output = status.value().output;
  if (duplicate) {
    if (!second.ok()) {
      out.error = "duplicate submit: " + second.error().to_string();
      return out;
    }
    auto again = world.service().wait(second.value());
    if (!succeeded(again) || again.value().output != out.output) {
      out.error = "duplicate: " + (succeeded(again) ? "output " + again.value().output
                                                    : describe(again));
      return out;
    }
  }

  auto deployed = world.deploy(lc, out.output, out.layers, root.id());
  if (!deployed.ok()) {
    out.error = "deploy: " + deployed.error().to_string();
    return out;
  }
  out.deploy_ms = deployed.value().deploy_ms;
  out.deployed = deployed.value().image;
  return out;
}

}  // namespace

std::string version_tag(std::uint64_t version) {
  std::string tag = "v";
  tag += std::to_string(version);
  return tag;
}

Status setup_lane(Lane& lane, Mix mix) {
  lane.world.reset();
  COMT_TRY(lane.world, World::create(lane.tracer));
  lane.revisions.assign(app_count() * kSystems, {});
  for (std::size_t a = 0; a < app_count(); ++a) {
    for (std::size_t s = 0; s < kSystems; ++s) {
      lane.revisions[lifecycle_slot({a, s})].assign(app(a).units.size(), 0);
    }
  }
  lane.version = 0;
  if (mix == Mix::fresh) return Status::success();
  // Warm state: every lifecycle's version 0 in the hub, the service's cache
  // and the nodes, in a fixed order.
  for (std::size_t a = 0; a < app_count(); ++a) {
    for (std::size_t s = 0; s < kSystems; ++s) {
      const Lifecycle lc{a, s};
      Outcome out = run_lifecycle(*lane.world, lc,
                                  revised_context(a, lane.revisions[lifecycle_slot(lc)]),
                                  version_tag(0), base_reference(lc, 0, true), 0,
                                  std::nullopt);
      if (!out.error.empty()) {
        return make_error(Errc::failed, repository(lc) + " warm-up: " + out.error);
      }
    }
  }
  return Status::success();
}

namespace {

/// Drops version `previous` from the hub and the nodes: update rounds keep
/// exactly the version before the one they publish.
Status retire_previous(Lane& lane, std::uint64_t previous) {
  for (std::size_t a = 0; a < app_count(); ++a) {
    for (std::size_t s = 0; s < kSystems; ++s) {
      COMT_TRY_STATUS(lane.world->retire({a, s}, version_tag(previous)));
    }
  }
  lane.world->prune_nodes();
  return Status::success();
}

}  // namespace

Round run_round(Lane& lane, Mix mix, std::uint64_t seed, std::uint64_t index) {
  Round round;
  round.index = index;
  round.traced = lane.tracer != nullptr;
  if (mix == Mix::fresh) {
    Status reset = setup_lane(lane, mix);
    COMT_ASSERT(reset.ok(), "fresh reset failed");
  } else {
    // Each lifecycle of this round edits one line of one translation unit.
    for (const Lifecycle& lc : round_order(seed, index, app_count())) {
      std::vector<int>& revisions = lane.revisions[lifecycle_slot(lc)];
      revisions[edited_unit(seed, index, lc, revisions.size())] = static_cast<int>(index);
    }
  }
  World& world = *lane.world;
  // The round's requests: every lifecycle once, in seeded order; in update
  // a seeded few are duplicated by a second tenant.
  std::vector<Request> script;
  if (mix == Mix::update) {
    script = request_script(seed, index, app_count());
  } else {
    for (const Lifecycle& lc : round_order(seed, index, app_count())) script.push_back({lc});
  }
  // The user's edited sources, one per publish in order, made before timing.
  std::vector<vfs::Filesystem> contexts;
  for (const Request& request : script) {
    if (request.duplicate) continue;
    const Lifecycle& lc = request.lifecycle;
    contexts.push_back(revised_context(lc.app, lane.revisions[lifecycle_slot(lc)]));
  }

  const std::uint64_t hub_before = world.hub_bytes();
  const std::uint64_t wire_before = world.hub_wire_bytes();
  const service::ServiceStats stats_before = world.service().stats();
  obs::Stopwatch wall;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Request& request = script[i];
    const bool paired = i + 1 < script.size() && script[i + 1].duplicate;
    std::optional<std::size_t> duplicate;
    if (paired) duplicate = script[i + 1].tenant;
    const std::size_t attempts = paired ? 2 : 1;
    round.attempted += attempts;
    round.outcomes.push_back(run_lifecycle(
        world, request.lifecycle, contexts[round.outcomes.size()], version_tag(index),
        base_reference(request.lifecycle, lane.version, mix == Mix::fresh), request.tenant,
        duplicate));
    if (!round.outcomes.back().error.empty()) round.failed += attempts;
    i += attempts - 1;
  }
  double machine_copy_ms = 0;
  for (const Outcome& out : round.outcomes) machine_copy_ms += out.layers.machine_copy_ms;
  round.wall_s = (wall.elapsed_ms() - machine_copy_ms) / 1000.0;
  const std::uint64_t hub_after = world.hub_bytes();
  round.hub_growth = hub_after > hub_before ? hub_after - hub_before : 0;
  round.wire_bytes = world.hub_wire_bytes() - wire_before;
  const service::ServiceStats stats_after = world.service().stats();
  round.tickets = stats_after.submitted - stats_before.submitted;
  round.coalesced = stats_after.coalesced - stats_before.coalesced;
  for (const Outcome& out : round.outcomes) {
    if (out.error.empty()) round.images_stored += 2;
  }
  if (mix != Mix::fresh) {
    Status retired = retire_previous(lane, lane.version);
    if (!retired.ok()) {
      round.outcomes.front().error = "retire: " + retired.error().to_string();
      ++round.failed;
    }
  }
  lane.version = index;
  return round;
}

}  // namespace lifecycle
