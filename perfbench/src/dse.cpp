// dse_genetic: in-process dse::run_dse with the genetic strategy, the
// xtc-dse default budget (DseOptions::budget, 1000 candidates per search),
// local scoring on four worker threads and no checkpoint directory. Per
// candidate, expand_candidate and make_job run serially on the driver
// thread against a short ISS run, so isa, tie and dse dominate and sim
// barely shows; genetic elites also exercise EvalCache reads.
//
// Whole searches (seeds drawn from the workload seed) repeat for the
// measured window. The traced run repeats them with the obs tracer on and
// attributes each generation (from one on_generation callback to the
// next) with the spans run_dse itself emits; expand_candidate and
// make_job, which emit none of their own, are timed as probes on a
// first-generation proposal.

#include <algorithm>
#include <limits>
#include <sstream>

#include "dse/candidate.h"
#include "dse/driver.h"
#include "dse/strategy.h"
#include "model/estimate.h"
#include "obs/trace.h"
#include "probes.h"
#include "report.h"
#include "tools/tool_common.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace exten;

constexpr unsigned kThreads = 4;
/// Frontier entries re-scored per search by the correctness check.
constexpr std::size_t kRescored = 3;
/// Obs-tracer ring size and the candidate cap of the traced searches. The
/// driver thread emits one span per candidate (tie_compile) into a single
/// ring, so the cap keeps it inside; each search's four workers get fresh
/// rings and emit at most seven spans per candidate between them.
constexpr std::size_t kTraceRingSpans = std::size_t{1} << 14;
constexpr std::uint64_t kTracedCandidates = 12'000;

/// Search `search` of a run; the budget stays at the xtc-dse default.
dse::DseOptions search_options(std::uint64_t seed, std::uint64_t search) {
  dse::DseOptions options;
  options.strategy = "genetic";
  options.seed = derive(seed, 100 + search);
  options.batch.num_threads = kThreads;
  return options;
}

std::string describe(const dse::ScoredGenome& s) {
  std::ostringstream os;
  os.precision(17);
  os << s.name << " score=" << s.score << " energy_pj=" << s.energy_pj
     << " cycles=" << s.cycles;
  return os.str();
}

/// Re-scores the top frontier entries in-process with the reference
/// engine; every field must match bit for bit.
void rescore(const model::EnergyMacroModel& macro_model,
             const dse::DseOptions& options,
             const std::vector<dse::ScoredGenome>& frontier,
             RunReport& report) {
  for (std::size_t i = 0; i < std::min(kRescored, frontier.size()); ++i) {
    const dse::ScoredGenome& entry = frontier[i];
    const dse::CandidateSources sources =
        dse::expand_candidate(entry.genome, options.genome);
    const service::BatchJob job = dse::make_job(sources);
    const model::EnergyEstimate estimate = model::estimate_energy(
        macro_model, job.program, job.processor, options.batch.max_instructions,
        sim::Engine::kReference);
    const double edp = estimate.energy_pj * 1e-6 *
                       (static_cast<double>(estimate.stats.cycles) * 1e-6);
    if (sources.name != entry.name || estimate.energy_pj != entry.energy_pj ||
        estimate.stats.cycles != entry.cycles || edp != entry.score) {
      std::ostringstream os;
      os.precision(17);
      os << "frontier entry " << describe(entry) << " re-scores to "
         << sources.name << " score=" << edp
         << " energy_pj=" << estimate.energy_pj
         << " cycles=" << estimate.stats.cycles;
      report.mismatch(os.str());
    }
  }
}

/// One completed generation, on the obs::Tracer timebase.
struct Generation {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct SearchTotals {
  std::uint64_t searches = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Summed over searches: entries each search's cache ends with.
  std::uint64_t cache_entries = 0;
  double wall_s = 0.0;    ///< summed run_dse wall time
  double window_s = 0.0;  ///< the measured window
  /// One sample per candidate: when its generation finished, and the wall
  /// time of that generation.
  std::vector<Sample> samples;
  std::vector<Generation> generations;
  std::vector<dse::ScoredGenome> first_frontier;

  double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(evaluations) / wall_s : 0.0;
  }
};

/// Runs whole searches until `seconds` have passed (at least one) or
/// `max_candidates` were evaluated, then re-scores their frontiers.
SearchTotals run_searches(const model::EnergyMacroModel& macro_model,
                          const Options& options, double seconds,
                          std::uint64_t max_candidates, RunReport& report) {
  SearchTotals totals;
  totals.window_s = seconds;
  std::vector<dse::DseResult> results;
  const auto start = Clock::now();
  do {
    dse::DseOptions search = search_options(options.seed, totals.searches);
    auto generation_start = Clock::now();
    search.on_generation = [&](const dse::GenerationSummary& summary) {
      const auto now = Clock::now();
      const Sample sample{
          std::chrono::duration<double>(now - start).count(),
          std::chrono::duration<double, std::milli>(now - generation_start)
              .count()};
      totals.samples.insert(totals.samples.end(), summary.proposed, sample);
      totals.generations.push_back({obs::Tracer::to_ns(generation_start),
                                    obs::Tracer::to_ns(now)});
      generation_start = now;
    };
    results.push_back(dse::run_dse(macro_model, search));
    const dse::DseStats& stats = results.back().stats;
    totals.evaluations += stats.evaluations;
    totals.infeasible += stats.infeasible;
    totals.cache_hits += stats.cache_hits;
    totals.cache_misses += stats.cache_misses;
    totals.cache_entries +=
        std::min<std::uint64_t>(stats.cache_misses,
                                search.batch.cache_capacity);
    totals.wall_s += stats.wall_seconds;
    ++totals.searches;
  } while (seconds_since(start) < seconds &&
           totals.evaluations < max_candidates);
  // Correctness, outside the measured window.
  for (std::size_t i = 0; i < results.size(); ++i) {
    rescore(macro_model, search_options(options.seed, i), results[i].frontier,
            report);
  }
  totals.first_frontier = results.front().frontier;
  report.attempted += totals.evaluations;
  report.failed += totals.infeasible;
  return totals;
}

bool same_frontier(const std::vector<dse::ScoredGenome>& a,
                   const std::vector<dse::ScoredGenome>& b) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].name == b[i].name && a[i].score == b[i].score;
  }
  return same;
}

void traced_run(const model::EnergyMacroModel& macro_model,
                const Options& options, const SearchTotals& plain,
                SpanLog& spans, RunReport& report) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_thread_capacity(kTraceRingSpans);
  tracer.clear();
  tracer.set_enabled(true);
  const SearchTotals traced = run_searches(
      macro_model, options, options.seconds / 2, kTracedCandidates, report);
  tracer.set_enabled(false);
  if (!same_frontier(traced.first_frontier, plain.first_frontier)) {
    report.mismatch("traced run_dse frontier differs from the untraced one");
  }

  // queue_wait spans start at submission, on the driver's clock, and
  // overlap the previous job of their worker, so they stay out of the
  // nesting; every other span run_dse emitted is folded in.
  const std::vector<obs::Span> obs_spans = tracer.snapshot();
  std::vector<obs::Span> folded;
  std::vector<obs::Span> waits;
  for (const obs::Span& s : obs_spans) {
    (std::string_view(s.name) == "queue_wait" ? waits : folded).push_back(s);
  }
  spans.fold_obs(folded);
  for (std::size_t g = 0; g < traced.generations.size(); ++g) {
    spans.record("dse.generation", "dse", traced.generations[g].start_ns,
                 traced.generations[g].end_ns, g + 1);
  }
  report.layer_counts["obs"].calls += obs_spans.size();
  report.layer_counts["obs"].failures += tracer.dropped_spans();
  report.layer_counts["dse"].calls += traced.searches;
  report.layer_counts["service"].calls += traced.evaluations;
  report.layer_counts["service"].failures += traced.infeasible;

  // Layer probes on the candidates of the first generation search 0
  // proposes; an estimator fed the same jobs gives their exact simulated
  // totals and the size of one cache entry (scaled by the entries each
  // search's cache ends with, below).
  const dse::DseOptions first = search_options(options.seed, 0);
  Rng rng(Rng::derive_seed(first.seed, 1));
  std::vector<service::BatchJob> jobs;
  std::vector<ProbeInput> inputs;
  for (const dse::Genome& genome :
       dse::Strategy::create(first.strategy, first.search)
           ->propose(rng, first.search.population, first.genome)) {
    const dse::CandidateSources sources =
        dse::expand_candidate(genome, first.genome);
    jobs.push_back(dse::make_job(sources));
    inputs.push_back({jobs.back().program, sources.asm_source,
                      sources.tie_source, ""});
  }
  probe_layers(inputs, macro_model, spans, report);
  service::BatchEstimator estimator(macro_model, first.batch);
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  for (const service::JobResult& r : estimator.estimate(jobs).results) {
    instructions += r.ok ? r.estimate.stats.instructions : 0;
    cycles += r.ok ? r.estimate.stats.cycles : 0;
  }
  const service::CacheStats cache = estimator.cache_stats();
  const double entry_bytes =
      cache.entries == 0 ? 0.0
                         : static_cast<double>(cache.approx_bytes) /
                               static_cast<double>(cache.entries);

  // Walk the generations. On the driver thread a generation proposes,
  // expands every candidate (each expansion compiles its TIE spec: the
  // driver's tie_compile spans, outside any job), builds the jobs and
  // submits them, waits for the workers, then observes and merges. So
  // expansion runs from the generation's first to its last TIE compile,
  // make_job from there to the first submission (earliest queue_wait
  // start), scoring from there to the last job's end; the rest of the
  // generation (propose, observe, merge) is unattributed.
  const std::vector<Span> all = spans.snapshot();
  const std::vector<double> self = self_seconds(all);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].from_obs) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return all[a].start_ns < all[b].start_ns;
  });
  std::sort(waits.begin(), waits.end(),
            [](const obs::Span& a, const obs::Span& b) {
              return a.start_ns < b.start_ns;
            });
  std::vector<double> queue_us;
  for (const obs::Span& w : waits) queue_us.push_back(w.dur_seconds() * 1e6);
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  double wall_s = 0.0;
  double expand_s = 0.0;
  double make_job_s = 0.0;
  double scoring_s = 0.0;
  double job_s = 0.0;
  double tie_s = 0.0;
  double probe_s = 0.0;
  std::uint64_t probes = 0;
  std::map<std::string, double> busy;  // worker self time per layer
  std::size_t next = 0;
  std::size_t next_wait = 0;
  for (const Generation& g : traced.generations) {
    wall_s += static_cast<double>(g.end_ns - g.start_ns) * 1e-9;
    std::uint64_t first_tie = kNone;
    std::uint64_t last_tie = 0;
    std::uint64_t first_submit = kNone;
    std::uint64_t last_done = 0;
    for (; next_wait < waits.size() && waits[next_wait].start_ns < g.end_ns;
         ++next_wait) {
      if (waits[next_wait].start_ns >= g.start_ns) {
        first_submit = std::min(first_submit, waits[next_wait].start_ns);
      }
    }
    for (; next < order.size() && all[order[next]].start_ns < g.end_ns;
         ++next) {
      const Span& s = all[order[next]];
      if (s.start_ns < g.start_ns) continue;
      const double own = self[order[next]];
      if (s.name == "tie_compile" && s.parent == 0) {
        first_tie = std::min(first_tie, s.start_ns);
        last_tie = std::max(last_tie, s.end_ns);
        tie_s += own;
        continue;
      }
      if (s.name == "job") {
        last_done = std::max(last_done, s.end_ns);
        job_s += s.seconds();
      } else if (s.name == "cache_probe") {
        probe_s += s.seconds();
        ++probes;
      }
      busy[s.layer] += own;
    }
    if (last_tie > first_tie) {
      expand_s += static_cast<double>(last_tie - first_tie) * 1e-9;
    }
    if (first_submit != kNone && first_submit > last_tie) {
      make_job_s += static_cast<double>(first_submit - last_tie) * 1e-9;
    }
    if (last_done > first_submit) {
      scoring_s += static_cast<double>(last_done - first_submit) * 1e-9;
    }
  }

  std::map<std::string, double>& m = report.metrics;
  const double n =
      static_cast<double>(std::max<std::uint64_t>(traced.evaluations, 1));
  m["dse.expand_us"] = expand_s / n * 1e6;
  m["dse.make_job_us"] = make_job_s / n * 1e6;
  m["dse.score_us"] = scoring_s / n * 1e6;
  m["dse.serial_share"] = (wall_s - scoring_s) / wall_s;
  m["dse.infeasible_ratio"] = static_cast<double>(traced.infeasible) / n;
  m["service.worker_busy_ratio"] = job_s / (kThreads * wall_s);
  const double lookups =
      static_cast<double>(traced.cache_hits + traced.cache_misses);
  m["service.cache_hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(traced.cache_hits) / lookups : 0.0;
  m["service.cache_bytes"] = entry_bytes *
                             static_cast<double>(traced.cache_entries) /
                             static_cast<double>(traced.searches);
  m["service.queue_wait_us_p50"] = percentile(queue_us, 0.50);
  m["service.queue_wait_us_p99"] = percentile(queue_us, 0.99);
  m["service.cache_probe_us"] = probes == 0 ? 0.0 : probe_s / probes * 1e6;
  m["sim.instructions"] = static_cast<double>(instructions);
  m["sim.cycles"] = static_cast<double>(cycles);
  m["obs.trace_overhead_ratio"] = plain.throughput() / traced.throughput();

  // Self time along the driver thread: expansion less its TIE compiles
  // to dse, the compiles to tie, make_job (assembly) to isa; scoring
  // splits each worker layer's busy time over the threads, the idle rest
  // staying with service.
  std::map<std::string, double> layer_s;
  double charged = 0.0;
  for (const auto& [layer, seconds] : busy) {
    layer_s[layer] += seconds / kThreads;
    charged += seconds / kThreads;
  }
  layer_s["service"] += std::max(0.0, scoring_s - charged);
  layer_s["tie"] += tie_s;
  layer_s["dse"] += std::max(0.0, expand_s - tie_s);
  layer_s["isa"] += make_job_s;
  for (const auto& [layer, seconds] : layer_s) {
    report.self_share[layer] = seconds / wall_s;
  }
  m["obs.unattributed_share"] =
      (wall_s - expand_s - make_job_s - scoring_s) / wall_s;
}

}  // namespace

RunReport run_dse(const Options& options, SpanLog* spans) {
  RunReport report;
  std::unique_ptr<model::EnergyMacroModel> macro_model;
  std::vector<model::TestProgram> apps;
  const auto setup = [&] {
    macro_model = std::make_unique<model::EnergyMacroModel>(
        model::EnergyMacroModel::deserialize(
            tools::read_file(options.model_path)));
    apps = held_out_apps(options.seed);
  };
  std::vector<double> setup_times;
  time_setup(setup, setup_times);
  const bool traced = spans != nullptr;
  const SearchTotals plain = run_searches(
      *macro_model, options, traced ? options.seconds / 2 : options.seconds,
      std::numeric_limits<std::uint64_t>::max(), report);

  Fingerprint fingerprint;
  for (const dse::ScoredGenome& s : plain.first_frontier) {
    fingerprint.str(s.name);
    fingerprint.f64(s.score);
    fingerprint.f64(s.energy_pj);
    fingerprint.u64(s.cycles);
  }
  report.fingerprint = fingerprint.digest().hex();

  if (traced) {
    traced_run(*macro_model, options, plain, *spans, report);
    return report;
  }
  std::map<std::string, double>& m = report.metrics;
  m["peak_rss_mb"] = peak_rss_mb();
  time_setup(setup, setup_times);
  const double setup_s = median(setup_times);
  const SliceStats sliced = slice_stats(plain.samples, plain.window_s);
  const std::uint64_t n = sliced.samples;
  m["setup_s"] = setup_s;
  m["throughput_per_s"] = sliced.throughput;
  m["latency_p50_ms"] = sliced.p50_ms;
  m["app_error_pct"] = app_error_pct(*macro_model, apps, nullptr);
  report.line("setup_s", setup_s, "s", setup_times.size());
  report.line("candidates_per_s", sliced.throughput, "1/s", n);
  report.lines.push_back(slice_line(sliced));
  report.line("latency_p50_ms", m["latency_p50_ms"], "ms", n);
  report.line("latency_p99_ms", sliced.p99_ms, "ms", n);
  const double evaluations =
      static_cast<double>(std::max<std::uint64_t>(plain.evaluations, 1));
  report.line("fail_ratio",
              static_cast<double>(plain.infeasible) / evaluations, "ratio",
              plain.evaluations);
  report.line("searches", static_cast<double>(plain.searches), "count",
              plain.searches);
  report.line("peak_rss_mb", m["peak_rss_mb"], "MB", 1);
  report.line("app_error_pct", m["app_error_pct"], "%", 10);
  return report;
}

}  // namespace perfbench
