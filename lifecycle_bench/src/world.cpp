#include "world.hpp"

#include <set>

#include "buildexec/builder.hpp"
#include "core/backend.hpp"
#include "core/cache.hpp"
#include "dockerfile/dockerfile.hpp"
#include "obs/stopwatch.hpp"
#include "workloads/environment.hpp"

namespace lifecycle {

using namespace comt;

const Site& site(std::size_t system) {
  static const std::array<Site, kSystems> sites = {
      Site{&sysmodel::SystemProfile::x86_cluster(), "x86"},
      Site{&sysmodel::SystemProfile::aarch64_cluster(), "arm"},
  };
  return sites.at(system);
}

const workloads::AppSpec& app(std::size_t index) { return workloads::corpus().at(index); }
std::size_t app_count() { return workloads::corpus().size(); }

vfs::Filesystem revised_context(std::size_t app_index, const std::vector<int>& revisions) {
  // Generating the corpus sources is the user's editor, not the pipeline:
  // do it once per app and copy the (copy-on-write) tree per publish.
  static const std::vector<vfs::Filesystem> base = [] {
    std::vector<vfs::Filesystem> contexts;
    for (const workloads::AppSpec& spec : workloads::corpus()) {
      contexts.push_back(workloads::build_context(spec));
    }
    return contexts;
  }();
  const workloads::AppSpec& spec = app(app_index);
  vfs::Filesystem context = base.at(app_index);
  for (std::size_t i = 0; i < spec.units.size(); ++i) {
    std::string path = "/src/" + spec.units[i].unit_name + ".cc";
    std::string source = context.read_file(path).value();
    source += "// lifecycle revision " + std::to_string(revisions.at(i)) + "\n";
    COMT_ASSERT(context.write_file(path, std::move(source)).ok(), "context edit failed");
  }
  return context;
}

std::string repository(const Lifecycle& lc) {
  return "hub/" + app(lc.app).name + "-" + site(lc.system).fingerprint;
}

std::string node_tag(const Lifecycle& lc) {
  return app(lc.app).name + std::string(core::kRebuiltSuffix);
}

std::string deployed_tag(const Lifecycle& lc) {
  return app(lc.app).name + std::string(core::kRedirectedSuffix);
}

World::World(obs::Tracer* tracer)
    : tracer_(tracer),
      hub_chunks_(std::make_shared<store::MemStore>()),
      service_store_(std::make_shared<store::MemStore>()),
      journals_(service_store_),
      adapters_(core::optimized_scheme()) {
  for (const auto& adapter : adapters_) adapter_ptrs_.push_back(adapter.get());
}

World::~World() = default;

Result<std::unique_ptr<World>> World::create(obs::Tracer* tracer) {
  std::unique_ptr<World> world(new World(tracer));
  COMT_TRY_STATUS(world->init());
  return world;
}

Status World::init() {
  hub_.enable_chunk_dedup(std::make_shared<transfer::ChunkStore>(hub_chunks_));
  if (tracer_ != nullptr) hub_.set_observer(tracer_, &metrics_);

  service::ServiceOptions options;
  options.workers_per_system = 1;
  options.journals = &journals_;
  options.store = service_store_;
  if (tracer_ != nullptr) {
    options.tracer = tracer_;
    options.metrics = &metrics_;
  }
  service_ = std::make_unique<service::RebuildService>(hub_, options);

  for (std::size_t s = 0; s < kSystems; ++s) {
    const sysmodel::SystemProfile& profile = *site(s).profile;
    COMT_TRY_STATUS(workloads::install_user_images(user_[s], profile.arch));
    COMT_TRY_STATUS(workloads::install_system_images(system_layouts_[s], profile));
    // The hub starts with the user base image each extended image builds on.
    COMT_TRY(auto pushed, hub_.push_delta(user_[s], workloads::base_tag(profile.arch),
                                          "comt/base", profile.arch));
    (void)pushed;

    service::TargetSystem target;
    target.profile = &profile;
    target.repo = &workloads::system_repo(profile);
    target.base_layout = system_layouts_[s];
    target.sysenv_tag = workloads::sysenv_tag(profile);
    target.adapters = adapter_ptrs_;
    COMT_TRY_STATUS(service_->add_system(site(s).fingerprint, std::move(target)));

    nodes_[s].layout = system_layouts_[s];
    nodes_[s].cache =
        std::make_unique<transfer::ChunkStore>(std::make_shared<store::MemStore>());
  }
  return Status::success();
}

Result<double> World::publish(const Lifecycle& lc, const vfs::Filesystem& context,
                                 const std::string& tag, const std::string& base_reference,
                                 LayerTimes& layers, obs::SpanId parent) {
  const workloads::AppSpec& spec = app(lc.app);
  const std::string& arch = site(lc.system).profile->arch;
  // A clean build machine per publish: the copy is the harness's, untimed.
  obs::Stopwatch copy_clock;
  oci::Layout layout = user_[lc.system];
  layers.machine_copy_ms += copy_clock.elapsed_ms();

  obs::Stopwatch total;
  obs::Span span = obs::maybe_span(tracer_, "lifecycle.publish", parent, "publish");
  COMT_TRY(dockerfile::Dockerfile file,
           dockerfile::parse(workloads::dockerfile_text(spec, arch, /*comt_bases=*/true)));
  buildexec::ImageBuilder builder(layout);
  builder.set_apt_source(&workloads::ubuntu_repo(arch));
  buildexec::BuildRecord record;
  const std::string dist_tag = spec.name + ".dist";
  {
    obs::Span step = obs::maybe_span(tracer_, "buildexec.build", span.id(), "publish");
    obs::Stopwatch clock;
    COMT_TRY(oci::Image dist, builder.build(file, context, dist_tag, "", &record));
    (void)dist;
    layers.build_ms = clock.elapsed_ms();
  }
  oci::Image extended;
  {
    obs::Span step = obs::maybe_span(tracer_, "core.extend", span.id(), "publish");
    obs::Stopwatch clock;
    COMT_TRY(oci::Image stage, layout.find_image(dist_tag + ".stage0"));
    COMT_TRY(vfs::Filesystem build_rootfs, layout.flatten(stage));
    COMT_TRY(extended, core::comtainer_build(layout, dist_tag, workloads::base_tag(arch),
                                             record, build_rootfs));
    layers.extend_ms = clock.elapsed_ms();
  }
  if (extended.manifest.layers.empty()) {
    return make_error(Errc::failed, "extended image has no layers");
  }
  layers.cache_layer_bytes = extended.manifest.layers.back().size;
  {
    obs::Span step = obs::maybe_span(tracer_, "registry.push_delta", span.id(), "publish");
    obs::Stopwatch clock;
    COMT_TRY(registry::ImageDeltaReport report,
             hub_.push_delta(layout, dist_tag + std::string(core::kExtendedSuffix),
                             repository(lc), tag, {base_reference}));
    layers.push_ms = clock.elapsed_ms();
    layers.chunks_moved += report.chunks_moved;
    layers.chunks_reused += report.chunks_reused;
  }
  return total.elapsed_ms();
}

Result<service::Ticket> World::submit(const Lifecycle& lc, const std::string& tag,
                                      const std::string& tenant) {
  service::SubmitRequest request;
  request.name = repository(lc);
  request.tag = tag;
  request.system = site(lc.system).fingerprint;
  request.tenant = tenant;
  return service_->submit(request);
}

Result<Deployed> World::deploy(const Lifecycle& lc, const std::string& output,
                               LayerTimes& layers, obs::SpanId parent) {
  const std::size_t colon = output.rfind(':');
  if (colon == std::string::npos) return make_error(Errc::invalid_argument, output);
  const std::string name = output.substr(0, colon);
  const std::string tag = output.substr(colon + 1);
  const sysmodel::SystemProfile& profile = *site(lc.system).profile;
  Node& node = nodes_[lc.system];

  obs::Stopwatch total;
  obs::Span span = obs::maybe_span(tracer_, "lifecycle.deploy", parent, "deploy");
  {
    obs::Span step = obs::maybe_span(tracer_, "registry.pull_delta", span.id(), "deploy");
    obs::Stopwatch clock;
    COMT_TRY(registry::ImageDeltaReport report,
             hub_.pull_delta(name, tag, node.layout, node_tag(lc), node.cache.get()));
    layers.pull_ms = clock.elapsed_ms();
    layers.chunks_moved += report.chunks_moved;
    layers.chunks_reused += report.chunks_reused;
  }
  Deployed deployed;
  {
    obs::Span step = obs::maybe_span(tracer_, "core.redirect", span.id(), "deploy");
    obs::Stopwatch clock;
    core::RedirectOptions options;
    options.system = &profile;
    options.system_repo = &workloads::system_repo(profile);
    options.rebase_tag = workloads::rebase_tag(profile);
    COMT_TRY(core::RedirectReport redirected,
             core::comtainer_redirect(node.layout, node_tag(lc), options));
    layers.redirect_ms = clock.elapsed_ms();
    deployed.image = redirected.image.manifest_digest;
  }
  deployed.deploy_ms = total.elapsed_ms();
  return deployed;
}

Status World::retire(const Lifecycle& lc, const std::string& tag) {
  const std::string name = repository(lc);
  COMT_TRY_STATUS(hub_.remove(name, tag + "+coMre." + site(lc.system).fingerprint));
  return hub_.remove(name, tag);
}

void World::prune_nodes() {
  for (Node& node : nodes_) {
    std::set<oci::Digest> live;
    for (const std::string& tag : node.layout.tags()) {
      auto image = node.layout.find_image(tag);
      if (!image.ok()) continue;
      live.insert(image.value().manifest_digest);
      live.insert(image.value().manifest.config.digest);
      for (const oci::Descriptor& layer : image.value().manifest.layers) {
        live.insert(layer.digest);
      }
    }
    for (const oci::Digest& digest : node.layout.blob_digests()) {
      if (live.contains(digest)) continue;
      node.layout.remove_blob(digest);
      if (node.cache->contains_blob(digest.value)) (void)node.cache->erase_blob(digest.value);
    }
  }
}

std::uint64_t World::hub_bytes() const {
  std::uint64_t total = hub_.stats().stored_bytes;
  for (const store::KvEntry& entry : hub_chunks_->list()) total += entry.size;
  return total;
}

std::uint64_t World::hub_wire_bytes() const {
  registry::Stats stats = hub_.stats();
  return stats.pushed_bytes + stats.pulled_bytes;
}

}  // namespace lifecycle
