// Image-lifecycle benchmark: entry point.
//
//   lifecycle --workload fresh|update --seed N --seconds S --trace 0|1
//             [--out DIR] [--setup-only 1]
//
// Runs rounds of the paper's lifecycle (publish → transform → deploy, every
// corpus app on both target systems) for S seconds, checks every result
// after the round's timing, and prints one JSON line last:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 rounds
// alternate between an untraced and a traced world; the metrics are the
// per-layer ones, also written with a Chrome trace to DIR (default
// .bench_out). Untraced runs scale their four timings to a nominal host
// speed with the reference of reference.hpp, and print the reference and the
// timings as measured to stderr. `setup_s` is this process's own start
// (entering main) to the first timed round; run.py takes its median over
// several processes, started with --setup-only 1, which set up, print
// {"setup_s": …} and exit. Exits 1 when a correctness check fails, 2 on bad
// usage or a failed set-up.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <fstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "rounds.hpp"
#include "stats.hpp"

using namespace lifecycle;

namespace {

struct Args {
  Mix mix = Mix::fresh;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
      if (value == "fresh") args.mix = Mix::fresh;
      else if (value == "update") args.mix = Mix::update;
      else return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") return false;
      args.setup_only = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buffer +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Per-round end-to-end figures.
struct RoundFigures {
  double wall_s = 0;
  double lifecycles = 0;
  double publish_ms = 0, transform_ms = 0, deploy_ms = 0;
  double wire_kib_per_lifecycle = 0, hub_kib_per_image = 0;
  double app_runtime_s = 0;
};

RoundFigures figures_of(const Round& round, double app_runtime_s) {
  RoundFigures f;
  std::vector<double> publish, transform, deploy;
  for (const Outcome& out : round.outcomes) {
    if (!out.error.empty()) continue;
    publish.push_back(out.publish_ms);
    transform.push_back(out.transform_ms);
    deploy.push_back(out.deploy_ms);
  }
  f.wall_s = round.wall_s;
  f.lifecycles = static_cast<double>(publish.size());
  f.publish_ms = median(publish);
  f.transform_ms = median(transform);
  f.deploy_ms = median(deploy);
  if (f.lifecycles > 0) f.wire_kib_per_lifecycle = round.wire_bytes / 1024.0 / f.lifecycles;
  if (round.images_stored > 0) {
    f.hub_kib_per_image = round.hub_growth / 1024.0 / static_cast<double>(round.images_stored);
  }
  f.app_runtime_s = app_runtime_s;
  return f;
}

/// Lifecycles per second from the fastest rounds' wall time.
double lifecycle_rate(const std::vector<RoundFigures>& rounds) {
  std::vector<double> walls;
  double lifecycles = 0;
  for (const RoundFigures& f : rounds) {
    walls.push_back(f.wall_s);
    lifecycles = std::max(lifecycles, f.lifecycles);
  }
  const double wall = fastest_rounds(walls);
  return wall > 0 ? lifecycles / wall : 0.0;
}

template <typename Field>
std::vector<double> column(const std::vector<RoundFigures>& rounds, Field field) {
  std::vector<double> values;
  for (const RoundFigures& f : rounds) values.push_back(f.*field);
  return values;
}

void add_outcome_samples(const Round& round, LayerSamples& samples) {
  for (const Outcome& out : round.outcomes) {
    if (!out.error.empty()) continue;
    samples.add("buildexec.build_ms", out.layers.build_ms);
    samples.add("core.extend_ms", out.layers.extend_ms);
    samples.add("core.cache_layer_kib", out.layers.cache_layer_bytes / 1024.0);
    samples.add("core.redirect_ms", out.layers.redirect_ms);
    samples.add("registry.push_ms", out.layers.push_ms);
    samples.add("registry.pull_ms", out.layers.pull_ms);
    samples.add_ratio("transfer.chunk_hit_ratio", static_cast<double>(out.layers.chunks_reused),
                      static_cast<double>(out.layers.chunks_reused + out.layers.chunks_moved));
    samples.add("service.queue_ms", out.trace.queue_ms);
    samples.add("service.pull_ms", out.trace.pull_ms);
    samples.add("service.rebuild_ms", out.trace.rebuild_ms);
    samples.add("service.push_ms", out.trace.push_ms);
    samples.add_ratio("service.cache_hit_ratio", static_cast<double>(out.trace.cache_hits),
                      static_cast<double>(out.trace.cache_hits + out.trace.cache_misses));
  }
  samples.add_ratio("service.coalesced_ratio", static_cast<double>(round.coalesced),
                    static_cast<double>(round.tickets));
}

/// Per-layer metrics in the order BENCHMARK.json lists them.
std::vector<Metric> layer_metrics(const LayerSamples& s, double overhead_pct) {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"buildexec.build_ms", "ms"},        {"core.extend_ms", "ms"},
      {"core.cache_layer_kib", "KiB"},     {"core.rebuild_ms", "ms"},
      {"core.load_cache_ms", "ms"},        {"core.redirect_ms", "ms"},
      {"core.rebuild_jobs", "count"},      {"oci.flatten_ms", "ms"},
      {"vfs.snapshot_us", "us"},           {"support.sha256_mib_per_s", "MiB/s"},
      {"json.parse_mib_per_s", "MiB/s"},   {"sched.wall_ms", "ms"},
      {"sched.cache_lookup_us", "us"},     {"sched.pool_batch_us", "us"},
      {"sysmodel.run_ms", "ms"},           {"registry.push_ms", "ms"},
      {"registry.pull_ms", "ms"},          {"transfer.chunk_mib_per_s", "MiB/s"},
      {"transfer.lz_encode_mib_per_s", "MiB/s"}, {"transfer.lz_decode_mib_per_s", "MiB/s"},
      {"transfer.chunk_hit_ratio", "ratio"}, {"transfer.codec_ratio", "ratio"},
      {"store.put_us", "us"},              {"store.get_us", "us"},
      {"service.queue_ms", "ms"},          {"service.rebuild_ms", "ms"},
      {"service.pull_ms", "ms"},           {"service.push_ms", "ms"},
      {"service.coalesced_ratio", "ratio"}, {"service.cache_hit_ratio", "ratio"},
      {"durable.append_us", "us"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : names) metrics.push_back({name, s.value(name), unit});
  metrics.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
  return metrics;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const comt::obs::Stopwatch process;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lifecycle --workload fresh|update --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--setup-only 1]\n");
    return 2;
  }

  // The host-speed reference of untraced runs, forked before any thread starts.
  std::optional<Reference> reference;
  if (!args.trace && !args.setup_only) {
    reference.emplace();
    if (!reference->started()) {
      std::fprintf(stderr, "cannot start the reference process\n");
      return 2;
    }
  }

  comt::obs::Tracer tracer;
  std::vector<Lane> lanes(args.trace ? 2 : 1);
  if (args.trace) lanes[1].tracer = &tracer;

  // Set-up: process start to the state the first timed round begins from,
  // one-time start-up costs included.
  for (Lane& lane : lanes) {
    comt::Status status = setup_lane(lane, args.mix);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.error().to_string().c_str());
      return 2;
    }
  }
  const double setup_s = process.elapsed_ms() / 1000.0;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  Checker checker(args.mix, args.seed);
  LayerSamples samples;
  std::array<std::vector<RoundFigures>, 2> figures;  // per lane
  std::size_t attempted = 0, failed = 0;
  const comt::obs::Stopwatch measuring;
  for (std::uint64_t index = 1;; ++index) {
    const std::size_t lane_index = args.trace ? index % 2 : 0;
    Lane& lane = lanes[lane_index];
    Round round = run_round(lane, args.mix, args.seed, index);
    attempted += round.attempted;
    failed += round.failed;
    for (const Outcome& out : round.outcomes) {
      if (!out.error.empty()) {
        std::fprintf(stderr, "round %llu %s: %s\n", static_cast<unsigned long long>(index),
                     repository(out.lc).c_str(), out.error.c_str());
      }
    }
    LayerSamples* probes = round.traced ? &samples : nullptr;
    const Checked checked = checker.check_round(*lane.world, round, probes);
    attempted += checked.attempted;
    failed += checked.failed;
    if (probes != nullptr) add_outcome_samples(round, samples);
    figures[lane_index].push_back(figures_of(round, checked.app_runtime_s));
    if (reference && !reference->run()) {
      std::fprintf(stderr, "the reference process did not answer\n");
      return 2;
    }
    const RoundFigures& f = figures[lane_index].back();
    std::fprintf(stderr,
                 "round %3llu%s wall %.3f s  publish %.3f  transform %.3f  deploy %.3f ms  "
                 "wire %.2f KiB/lc  hub %.2f KiB/img\n",
                 static_cast<unsigned long long>(index), round.traced ? " traced" : "",
                 f.wall_s, f.publish_ms, f.transform_ms, f.deploy_ms,
                 f.wire_kib_per_lifecycle, f.hub_kib_per_image);
    const bool both_lanes_ran = !args.trace || index >= 2;
    if (both_lanes_ran && measuring.elapsed_ms() >= args.seconds * 1000.0) break;
  }

  for (const std::string& failure : checker.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = checker.failures().empty();

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<RoundFigures>& rounds = figures[0];
    const double rate = lifecycle_rate(rounds);
    const double publish = fastest_rounds(column(rounds, &RoundFigures::publish_ms));
    const double transform = fastest_rounds(column(rounds, &RoundFigures::transform_ms));
    const double deploy = fastest_rounds(column(rounds, &RoundFigures::deploy_ms));
    // Timings at the reference's nominal speed (see reference.hpp).
    const double scale = kReferenceNominalMs / reference->ms();
    const auto parts = reference->part_ms();
    std::fprintf(stderr,
                 "reference %.3f ms (sort %.3f, table %.3f, copy %.3f, format %.3f), scale %.4f; "
                 "as measured: %.4f lifecycles/s, publish %.4f, transform %.4f, deploy %.4f ms\n",
                 reference->ms(), parts[0], parts[1], parts[2], parts[3], scale, rate, publish,
                 transform, deploy);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"lifecycles_per_s", rate / scale, "1/s"},
        {"publish_ms", publish * scale, "ms"},
        {"transform_ms", transform * scale, "ms"},
        {"deploy_ms", deploy * scale, "ms"},
        {"wire_kib_per_lifecycle", median(column(rounds, &RoundFigures::wire_kib_per_lifecycle)),
         "KiB"},
        {"hub_kib_per_image", median(column(rounds, &RoundFigures::hub_kib_per_image)), "KiB"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"app_runtime_s", geomean(column(rounds, &RoundFigures::app_runtime_s)), "s"},
    };
  } else {
    const double plain = lifecycle_rate(figures[0]);
    const double traced = lifecycle_rate(figures[1]);
    const double overhead_pct = traced > 0 ? (plain / traced - 1.0) * 100.0 : 0.0;
    metrics = layer_metrics(samples, overhead_pct);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.out_dir + "/" + args.workload;
    const std::string layers = "{\"workload\": \"" + args.workload +
                               "\", \"seed\": " + std::to_string(args.seed) +
                               ", \"untraced_lifecycles_per_s\": " + std::to_string(plain) +
                               ", \"traced_lifecycles_per_s\": " + std::to_string(traced) +
                               ", \"metrics\": " + metrics_json(metrics) + "}\n";
    if (!write_file(stem + "-layers.json", layers) ||
        !write_file(stem + "-trace.json", tracer.chrome_trace_json())) {
      std::fprintf(stderr, "cannot write traced outputs under %s\n", args.out_dir.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
