#include "checks.hpp"

#include <atomic>
#include <cstdio>
#include <functional>

#include "core/backend.hpp"
#include "core/cache.hpp"
#include "digest_check.hpp"
#include "durable/journal.hpp"
#include "json/json.hpp"
#include "obs/stopwatch.hpp"
#include "sched/compile_cache.hpp"
#include "stats.hpp"
#include "store/store.hpp"
#include "support/sha256.hpp"
#include "transfer/chunker.hpp"
#include "transfer/codec.hpp"
#include "workloads/corpus.hpp"
#include "workloads/environment.hpp"

namespace lifecycle {

using namespace comt;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

Result<double> run_seconds(const oci::Layout& layout, const std::string& tag,
                           const sysmodel::SystemProfile& profile,
                           const workloads::WorkloadInput& input, LayerSamples* probes) {
  COMT_TRY(oci::Image image, layout.find_image(tag));
  COMT_TRY(vfs::Filesystem rootfs, layout.flatten(image));
  if (image.config.config.entrypoint.empty()) {
    return make_error(Errc::invalid_argument, tag + ": no entrypoint");
  }
  sysmodel::ExecutionEngine engine(profile);
  obs::Stopwatch clock;
  COMT_TRY(sysmodel::RunReport report,
           engine.run(rootfs, image.config.config.entrypoint[0],
                      input.run_request(profile.nodes)));
  if (probes != nullptr) probes->add("sysmodel.run_ms", clock.elapsed_ms());
  return report.seconds;
}

/// Whether the app's build links its inner objects through an `ar` archive.
bool archives_objects(const Lifecycle& lc) {
  const std::string text =
      workloads::dockerfile_text(app(lc.app), site(lc.system).profile->arch, true);
  return text.find("ar rcs lib") != std::string::npos;
}

}  // namespace

double LayerSamples::value(const std::string& name) const {
  if (auto it = samples_.find(name); it != samples_.end()) return median(it->second);
  if (auto it = ratios_.find(name); it != ratios_.end() && it->second.second > 0) {
    return it->second.first / it->second.second;
  }
  return 0.0;
}

Checker::Checker(Mix mix, std::uint64_t seed) : mix_(mix), seed_(seed) {}
Checker::~Checker() = default;

void Checker::fail(const Outcome& out, const std::string& what) {
  failures_.push_back("round " + std::to_string(round_) + " " + repository(out.lc) + ":" +
                      out.tag + ": " + what);
}

Checked Checker::check_round(World& world, const Round& round, LayerSamples* probes) {
  round_ = round.index;
  Checked checked;
  std::vector<double> all;
  std::array<std::vector<double>, kSystems> deployed_seconds, generic_seconds;
  for (const Outcome& out : round.outcomes) {
    if (!out.error.empty()) continue;
    const workloads::AppSpec& spec = app(out.lc.app);
    const std::size_t input = chosen_input(seed_, round.index, out.lc, spec.inputs.size());

    check_pulled_blobs(world, out, probes);
    double generic = 0;
    check_against_direct(world, out, input, generic, probes);
    auto deployed = run_seconds(world.node_layout(out.lc.system), deployed_tag(out.lc),
                                *site(out.lc.system).profile, spec.inputs[input], probes);
    if (!deployed.ok()) {
      fail(out, "run deployed image: " + deployed.error().to_string());
      continue;
    }
    if (generic > 0) {
      deployed_seconds[out.lc.system].push_back(deployed.value());
      generic_seconds[out.lc.system].push_back(generic);
    }
    all.push_back(deployed.value());
    if (mix_ == Mix::update) {
      ++checked.attempted;
      if (!check_edit(world, out)) ++checked.failed;
    }
  }
  // Fig. 9's direction: on each system the adapted images run faster than
  // the generic ones they came from.
  for (std::size_t s = 0; s < kSystems; ++s) {
    if (deployed_seconds[s].empty()) continue;
    const double adapted = geomean(deployed_seconds[s]);
    const double generic = geomean(generic_seconds[s]);
    if (!(adapted < generic)) {
      failures_.push_back("round " + std::to_string(round.index) + " " + site(s).fingerprint +
                          ": deployed geomean " + std::to_string(adapted) +
                          " s is not below generic " + std::to_string(generic) + " s");
    }
  }
  checked.app_runtime_s = geomean(all);
  return checked;
}

void Checker::check_pulled_blobs(World& world, const Outcome& out, LayerSamples* probes) {
  const oci::Layout& node = world.node_layout(out.lc.system);
  auto image = node.find_image(node_tag(out.lc));
  if (!image.ok()) {
    fail(out, "node image: " + image.error().to_string());
    return;
  }
  const std::size_t colon = out.output.rfind(':');
  auto published = world.hub().resolve(out.output.substr(0, colon), out.output.substr(colon + 1));
  if (!published.ok() || !(published.value() == image.value().manifest_digest)) {
    fail(out, "node holds manifest " + image.value().manifest_digest.value +
                  ", hub published " + (published.ok() ? published.value().value : "nothing"));
  }
  std::vector<oci::Descriptor> blobs = image.value().manifest.layers;
  blobs.push_back(image.value().manifest.config);
  auto manifest = node.get_blob(image.value().manifest_digest);
  if (!manifest.ok() || openssl_sha256(manifest.value()) != image.value().manifest_digest.value) {
    fail(out, "manifest blob does not hash to " + image.value().manifest_digest.value);
  }
  for (const oci::Descriptor& blob : blobs) {
    auto bytes = node.get_blob(blob.digest);
    if (!bytes.ok()) {
      fail(out, "pulled blob unreadable: " + bytes.error().to_string());
      continue;
    }
    if (std::string mismatch = check_blob(bytes.value(), blob); !mismatch.empty()) {
      fail(out, "pulled blob " + mismatch);
    }
  }
  if (probes != nullptr) probe_layers(node, out, *probes);
}

void Checker::check_against_direct(World& world, const Outcome& out, std::size_t input,
                                   double& generic_seconds, LayerSamples* probes) {
  const workloads::AppSpec& spec = app(out.lc.app);
  const sysmodel::SystemProfile& profile = *site(out.lc.system).profile;
  auto extended = world.hub().resolve(repository(out.lc), out.tag);
  if (!extended.ok()) {
    fail(out, "extended image gone from the hub: " + extended.error().to_string());
    return;
  }
  const std::string key = extended.value().value + "|" + site(out.lc.system).fingerprint;
  const std::string runtime_key = key + "|" + std::to_string(input);
  const bool need_direct = probes != nullptr || !expected_.contains(key);
  if (need_direct || !generic_seconds_.contains(runtime_key)) {
    // A private layout holding only the system images and the extended image.
    oci::Layout layout = world.system_layout(out.lc.system);
    const std::string extended_tag = spec.name + std::string(core::kExtendedSuffix);
    if (Status pulled = world.hub().pull(repository(out.lc), out.tag, layout, extended_tag);
        !pulled.ok()) {
      fail(out, "pull extended image: " + pulled.error().to_string());
      return;
    }
    auto generic = run_seconds(layout, extended_tag, profile, spec.inputs[input], nullptr);
    if (!generic.ok()) {
      fail(out, "run generic image: " + generic.error().to_string());
      return;
    }
    generic_seconds_[runtime_key] = generic.value();

    if (need_direct) {
      if (probes != nullptr) {
        obs::Stopwatch flatten_clock;
        auto image = layout.find_image(extended_tag);
        auto rootfs = image.ok() ? layout.flatten(image.value())
                                 : Result<vfs::Filesystem>(image.error());
        probes->add("oci.flatten_ms", flatten_clock.elapsed_ms());
        if (rootfs.ok()) {
          obs::Stopwatch snapshot_clock;
          vfs::Filesystem snapshot = rootfs.value();
          probes->add("vfs.snapshot_us", snapshot_clock.elapsed_us());
          obs::Stopwatch load_clock;
          auto bundle = core::load_cache(snapshot);
          probes->add("core.load_cache_ms", load_clock.elapsed_ms());
          if (!bundle.ok()) fail(out, "load_cache: " + bundle.error().to_string());
        }
      }
      sched::CompileCache cold;
      core::RebuildOptions options;
      options.system = &profile;
      options.system_repo = &workloads::system_repo(profile);
      options.sysenv_tag = workloads::sysenv_tag(profile);
      options.adapters = world.adapters();
      options.threads = 1;
      options.compile_cache = &cold;
      obs::Stopwatch rebuild_clock;
      auto rebuilt = core::comtainer_rebuild(layout, extended_tag, options);
      const double rebuild_ms = rebuild_clock.elapsed_ms();
      if (!rebuilt.ok()) {
        fail(out, "direct rebuild: " + rebuilt.error().to_string());
        return;
      }
      core::RedirectOptions redirect;
      redirect.system = &profile;
      redirect.system_repo = &workloads::system_repo(profile);
      redirect.rebase_tag = workloads::rebase_tag(profile);
      auto redirected = core::comtainer_redirect(layout, node_tag(out.lc), redirect);
      if (!redirected.ok()) {
        fail(out, "direct redirect: " + redirected.error().to_string());
        return;
      }
      expected_[key] = redirected.value().image.manifest_digest;
      if (probes != nullptr) {
        probes->add("core.rebuild_ms", rebuild_ms);
        probes->add("sched.wall_ms", rebuilt.value().wall_ms);
        probes->add("core.rebuild_jobs", static_cast<double>(rebuilt.value().jobs));
      }
    }
  }
  generic_seconds = generic_seconds_[runtime_key];
  if (!(expected_[key] == out.deployed)) {
    fail(out, "deployed " + out.deployed.value + " but a direct rebuild + redirect gives " +
                  expected_[key].value);
  }
}

bool Checker::check_edit(World& world, const Outcome& out) {
  // The edit touched one translation unit, so it misses at least one job;
  // when the app has other units, their jobs hit, so not every job misses.
  // (With a single unit every job is downstream of the edit.)
  const std::size_t misses = out.trace.cache_misses;
  const bool single_unit = app(out.lc.app).units.size() == 1;
  if (misses < 1 || (!single_unit && misses >= out.trace.compile_jobs)) {
    fail(out, "edit missed " + std::to_string(misses) + " of " +
                  std::to_string(out.trace.compile_jobs) + " compile jobs");
  }
  // The unchanged image again must compile nothing.
  auto ticket = world.submit(out.lc, out.tag, tenant_name(0));
  if (!ticket.ok()) {
    fail(out, "resubmit: " + ticket.error().to_string());
    return false;
  }
  auto status = world.service().wait(ticket.value());
  if (!status.ok() || status.value().state != service::JobState::succeeded) {
    fail(out, "resubmit did not succeed");
    return false;
  }
  if (status.value().trace.compile_jobs == 0) {
    fail(out, "resubmit scheduled no compile jobs");
    return false;
  }
  const std::size_t resubmit_misses = status.value().trace.cache_misses;
  if (resubmit_misses == 0) return true;
  const std::string missed = "unchanged resubmit compiled " + std::to_string(resubmit_misses) +
                             " of " + std::to_string(status.value().trace.compile_jobs) + " jobs";
  // The one known fault (README, "Known fault"): an app that archives its
  // objects with `ar` re-runs that job in each of the two PGO passes, because
  // both passes share one compile-cache key. That is exactly two misses; it
  // fails this operation but not the run. Any other miss is a failed check.
  if (resubmit_misses == 2 && archives_objects(out.lc)) {
    std::fprintf(stderr, "round %llu %s:%s: %s (known ar fault)\n",
                 static_cast<unsigned long long>(round_), repository(out.lc).c_str(),
                 out.tag.c_str(), missed.c_str());
  } else {
    fail(out, missed);
  }
  return false;
}

void Checker::probe_layers(const oci::Layout& layout, const Outcome& out,
                           LayerSamples& probes) {
  auto image = layout.find_image(node_tag(out.lc));
  if (!image.ok()) return;
  std::vector<std::string> layer_blobs;
  for (const oci::Descriptor& layer : image.value().manifest.layers) {
    auto bytes = layout.get_blob(layer.digest);
    if (bytes.ok()) layer_blobs.push_back(std::move(bytes).value());
  }
  std::vector<std::string> json_blobs;
  for (const oci::Digest& digest :
       {image.value().manifest_digest, image.value().manifest.config.digest}) {
    auto bytes = layout.get_blob(digest);
    if (bytes.ok()) json_blobs.push_back(std::move(bytes).value());
  }

  // support: the program's own SHA-256 over every pulled blob.
  double hashed = 0;
  obs::Stopwatch sha_clock;
  for (const auto* set : {&layer_blobs, &json_blobs}) {
    for (const std::string& blob : *set) {
      hashed += static_cast<double>(blob.size());
      if (Sha256::hex_digest(blob).empty()) fail(out, "sha256 probe");
    }
  }
  probes.add_ratio("support.sha256_mib_per_s", hashed / kMiB, sha_clock.elapsed_ms() / 1000.0);

  // json: manifest and config parse.
  double parsed = 0;
  obs::Stopwatch json_clock;
  for (const std::string& blob : json_blobs) {
    parsed += static_cast<double>(blob.size());
    if (!json::parse(blob).ok()) fail(out, "json probe: manifest or config does not parse");
  }
  probes.add_ratio("json.parse_mib_per_s", parsed / kMiB, json_clock.elapsed_ms() / 1000.0);

  // transfer: chunking, then LZ encode/decode of every chunk.
  const transfer::ChunkerParams params;
  const transfer::Codec* lz = transfer::find_codec(transfer::CodecId::lz);
  for (const std::string& blob : layer_blobs) {
    obs::Stopwatch chunk_clock;
    auto manifest = transfer::build_manifest(blob, params);
    probes.add_ratio("transfer.chunk_mib_per_s", static_cast<double>(blob.size()) / kMiB,
                     chunk_clock.elapsed_ms() / 1000.0);
    if (!manifest.ok() || lz == nullptr) continue;
    for (const transfer::ChunkRef& chunk : manifest.value().chunks) {
      const std::string_view raw(blob.data() + chunk.offset, chunk.size);
      obs::Stopwatch encode_clock;
      std::string encoded = lz->encode(raw);
      const double encode_s = encode_clock.elapsed_ms() / 1000.0;
      obs::Stopwatch decode_clock;
      auto decoded = lz->decode(encoded, raw.size());
      const double decode_s = decode_clock.elapsed_ms() / 1000.0;
      if (!decoded.ok() || decoded.value() != raw) fail(out, "lz probe: round trip differs");
      const double mib = static_cast<double>(raw.size()) / kMiB;
      probes.add_ratio("transfer.lz_encode_mib_per_s", mib, encode_s);
      probes.add_ratio("transfer.lz_decode_mib_per_s", mib, decode_s);
      probes.add_ratio("transfer.codec_ratio", static_cast<double>(encoded.size()),
                       static_cast<double>(raw.size()));
    }
  }

  // store: one put and one get per blob into a fresh MemStore.
  store::MemStore kv;
  std::size_t key = 0;
  for (const std::string& blob : layer_blobs) {
    const std::string name = "blob/" + std::to_string(key++);
    obs::Stopwatch put_clock;
    Status put = kv.put(name, blob);
    probes.add("store.put_us", put_clock.elapsed_us());
    obs::Stopwatch get_clock;
    auto got = kv.get(name);
    probes.add("store.get_us", get_clock.elapsed_us());
    if (!put.ok() || !got.ok() || got.value().size() != blob.size()) fail(out, "store probe");
  }

  // durable: commit records carrying the largest layer as one job output.
  if (!layer_blobs.empty()) {
    durable::Journal journal;
    (void)journal.append_begin({"probe", site(out.lc.system).fingerprint, "", 4});
    const std::string* largest = &layer_blobs.front();
    for (const std::string& blob : layer_blobs) {
      if (blob.size() > largest->size()) largest = &blob;
    }
    for (int job = 0; job < 4; ++job) {
      durable::CommitRecord record;
      record.job_id = "probe:" + std::to_string(job);
      record.outputs.push_back({"/probe/out.o", *largest, 0644});
      record.output_digest = durable::digest_outputs(record.outputs);
      obs::Stopwatch append_clock;
      Status appended = journal.append_commit(record);
      probes.add("durable.append_us", append_clock.elapsed_us());
      if (!appended.ok()) fail(out, "journal probe: " + appended.error().to_string());
    }
  }

  // sched: compile-cache hits over the app's sources, and one pool batch
  // of trivial tasks the size of a round.
  const vfs::Filesystem context = revised_context(out.lc.app,
                                                  std::vector<int>(app(out.lc.app).units.size(), 0));
  sched::CompileCache cache;
  std::vector<std::string> keys;
  for (const toolchain::SourceGenSpec& unit : app(out.lc.app).units) {
    const std::string path = "/src/" + unit.unit_name + ".cc";
    sched::CacheKey cache_key{"gcc", site(out.lc.system).profile->arch, "/src",
                              {"gcc", "-O2", "-c", path, "-o", unit.unit_name + ".o"}};
    sched::CacheEntry entry;
    entry.input_digests[path] = Sha256::hex_digest(context.read_file(path).value_or(""));
    entry.outputs.push_back({"/src/" + unit.unit_name + ".o", "object", 0644});
    keys.push_back(cache_key.digest());
    cache.store(keys.back(), std::move(entry));
  }
  const sched::CompileCache::DigestFn digest_of = [&context](const std::string& path) {
    return Sha256::hex_digest(context.read_file(path).value_or(""));
  };
  for (const std::string& cache_key : keys) {
    obs::Stopwatch lookup_clock;
    auto hit = cache.lookup(cache_key, digest_of);
    probes.add("sched.cache_lookup_us", lookup_clock.elapsed_us());
    if (hit == nullptr) fail(out, "compile-cache probe: stored entry missed");
  }
  if (pool_ == nullptr) pool_ = std::make_unique<sched::ThreadPool>(1);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> batch(app_count() * kSystems,
                                           [&ran] { ran.fetch_add(1); });
  obs::Stopwatch pool_clock;
  pool_->submit_batch(std::move(batch));
  pool_->wait_idle();
  probes.add("sched.pool_batch_us", pool_clock.elapsed_us());
  if (ran.load() != static_cast<int>(app_count() * kSystems)) fail(out, "pool probe");
}

}  // namespace lifecycle
