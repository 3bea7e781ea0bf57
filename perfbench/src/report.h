#pragma once

// What one workload run reports, the metric catalogue (names and units,
// mirrored by BENCHMARK.json) and the small statistics helpers every
// workload shares.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "flags.h"
#include "model/macro_model.h"
#include "model/test_program.h"
#include "service/content_hash.h"
#include "spans.h"

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics, printed by every untraced run. Each is defined on
/// every workload (see perfbench/README.md for the per-workload meaning).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"app_error_pct", "%"},
};

/// Layers whose call counts, failures and blocking-path self-time shares
/// every traced run reports.
inline constexpr std::string_view kLayers[] = {
    "net", "service", "sim", "model", "isa", "tie",
    "dse", "power", "linalg", "obs", "workloads"};

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not exercise the layer). `<layer>.calls`, `<layer>.failures` and
/// `<layer>.self_share` follow for each entry of kLayers.
inline constexpr MetricSpec kPerLayer[] = {
    {"net.parse_us", "us"},
    {"net.route_us", "us"},
    {"net.respond_us", "us"},
    {"net.api_compile_us", "us"},
    {"isa.assemble_us", "us"},
    {"tie.compile_us", "us"},
    {"service.digest_us", "us"},
    {"service.cache_probe_us", "us"},
    {"service.queue_wait_us_p50", "us"},
    {"service.queue_wait_us_p99", "us"},
    {"service.worker_busy_ratio", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_bytes", "bytes"},
    {"sim.setup_us", "us"},
    {"sim.run_us", "us"},
    {"sim.profile_us", "us"},
    {"sim.mips", "MIPS"},
    {"sim.instructions", "count"},
    {"sim.cycles", "count"},
    {"model.estimate_us", "us"},
    {"model.dot_ns", "ns"},
    {"sim.reference_run_s", "s"},
    {"power.rtl_s", "s"},
    {"power.slowest_program_s", "s"},
    {"linalg.fit_ms", "ms"},
    {"dse.expand_us", "us"},
    {"dse.make_job_us", "us"},
    {"dse.score_us", "us"},
    {"dse.serial_share", "ratio"},
    {"dse.infeasible_ratio", "ratio"},
    {"workloads.suite_build_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.unattributed_share", "ratio"},
};

/// Every per-layer metric name with its unit, in print order.
std::vector<std::pair<std::string, std::string>> per_layer_catalogue();

/// Calls and failures of one layer during a traced run.
struct LayerCount {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
};

struct RunReport {
  /// Correctness-check failures; empty means correct.
  std::vector<std::string> mismatches;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by catalogue name (end-to-end or per-layer).
  std::map<std::string, double> metrics;
  std::map<std::string, LayerCount> layer_counts;
  /// Blocking-path self time per layer, as a share of end-to-end time.
  std::map<std::string, double> self_share;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;
  /// Digest of the simulated statistics (fixed work, seed-determined).
  std::string fingerprint;

  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
  /// A "metric <name> <value> <unit> n=<samples>" line.
  void line(std::string_view name, double value, std::string_view unit,
            std::uint64_t samples);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const RunReport& report, bool traced);

// --- shared helpers --------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of `values` (sorted in place); q in [0, 1].
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// One completed operation: when it finished (seconds since the start of
/// the measured window) and how long it took (+inf = failed).
struct Sample {
  double done_s = 0.0;
  double latency_ms = 0.0;
};

/// The measured window is cut into one-second slices; throughput and the
/// latency percentiles are computed per slice and the medians across
/// slices reported, so a burst of interference from outside the process
/// moves a minority of slices rather than the result. Samples finishing
/// after the last whole slice are dropped. A failed operation counts as
/// missing every percentile; when a percentile lands on one it reads as
/// the whole slice.
struct SliceStats {
  double throughput = 0.0;  ///< successes per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t slices = 0;
  std::uint64_t samples = 0;  ///< inside the slices
  std::vector<double> slice_throughput;  ///< per slice, in window order
};
inline constexpr double kSliceSeconds = 1.0;
SliceStats slice_stats(const std::vector<Sample>& samples, double window_s);
/// "slices n=<slices> throughput_per_s=<v1>,<v2>,..." for the run log.
std::string slice_line(const SliceStats& stats);

/// Process peak resident set size in MB.
double peak_rss_mb();

/// Seed for sub-stream `stream` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Streaming fingerprint of simulated statistics: the service's content
/// hasher (128-bit, two FNV-1a streams), printed as 32 hex digits.
using Fingerprint = exten::service::ContentHasher;

/// Runs `setup` at least kMinSetupReps times, and for cheap set-ups more
/// often (until kMinSetupSeconds have passed, at most kMaxSetupReps
/// times), appending each duration to `times`. The callable must leave the
/// state of its last repetition in place.
///
/// An untraced run times one such block before the measured window and
/// one after it and reports setup_s as the median of both: on a shared
/// virtual machine single-thread speed drifts over seconds, so two blocks
/// a window apart give a steadier median than one.
inline constexpr std::size_t kMinSetupReps = 3;
inline constexpr double kMinSetupSeconds = 1.0;
inline constexpr std::size_t kMaxSetupReps = 200;

template <typename Setup>
void time_setup(Setup&& setup, std::vector<double>& times) {
  double total = 0.0;
  for (std::size_t reps = 0;
       reps < kMinSetupReps ||
       (total < kMinSetupSeconds && reps < kMaxSetupReps);
       ++reps) {
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
    total += times.back();
  }
}

/// The ten held-out Table II applications drawn from `seed` (generated
/// during set-up; the accuracy check runs after the measured window).
std::vector<exten::model::TestProgram> held_out_apps(std::uint64_t seed);

/// Mean |error| (percent) of `model` against model::reference_energy on
/// `apps`; adds each estimate and reference to `fingerprint` when given.
double app_error_pct(const exten::model::EnergyMacroModel& model,
                     const std::vector<exten::model::TestProgram>& apps,
                     Fingerprint* fingerprint);

/// Dispatch per workload.
RunReport run_serve(const Options& options, bool warm, SpanLog* spans);
RunReport run_dse(const Options& options, SpanLog* spans);
RunReport run_characterize(const Options& options, SpanLog* spans);

}  // namespace perfbench
