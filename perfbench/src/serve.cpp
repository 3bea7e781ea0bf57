// serve_cold and serve_warm: the xtc-serve stack (ShardedServer with its
// defaults: 1 shard, hardware-concurrency workers) in-process, driven by
// closed-loop keep-alive clients posting /v1/estimate. Closed loop
// because the real callers (xtc-dse --remote, xtc-http) wait for each
// reply.
//
//   serve_cold: every request is a fresh Table II kernel instance plus a
//     unique nonce word, so every content digest is new and every request
//     runs the ISS and profiling on a worker.
//   serve_warm: 64 fixed requests, sent once untimed to fill the cache,
//     then round-robin; every timed request is a cache hit, so the timing
//     is the event-loop thread's work (HTTP, JSON, assembly and TIE
//     compile, digest, probe, serialization).

#include <atomic>
#include <charconv>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "inputs.h"
#include "model/estimate.h"
#include "net/api.h"
#include "net/http_client.h"
#include "net/sharded_server.h"
#include "obs/trace.h"
#include "probes.h"
#include "report.h"
#include "service/batch_estimator.h"
#include "tools/tool_common.h"
#include "util/json.h"

namespace perfbench {

namespace {

using namespace exten;

/// Closed-loop keep-alive connections: xtc-serve's real callers wait for
/// each reply, and four match the four worker threads.
constexpr unsigned kClients = 4;
constexpr std::size_t kColdKernels = 256;
constexpr std::size_t kWarmRequests = 64;
constexpr std::size_t kProbeInputs = 64;
/// Obs-tracer ring size and the per-client request cap of the traced
/// pass; the cap keeps every span of that pass inside the rings (the
/// loop thread emits about five spans per request).
constexpr std::size_t kTraceRingSpans = std::size_t{1} << 17;
constexpr std::uint64_t kTracedRequestsPerClient = 6000;
constexpr std::size_t kMaxReportedMismatches = 8;
/// Nonce of the reference bodies; request nonces never reach it.
constexpr std::uint64_t kReferenceNonce = ~std::uint64_t{0};

/// The serving stack under test. Owns the server thread; stop() drains
/// and joins it before the server and estimator are destroyed.
class ServingStack {
 public:
  ServingStack() = default;
  ~ServingStack() { stop(); }
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  void boot(const model::EnergyMacroModel& macro_model) {
    estimator_ = std::make_unique<service::BatchEstimator>(macro_model);
    server_ = std::make_unique<net::ShardedServer>(
        *estimator_, net::ShardedServerOptions{});
    loop_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        loop_error_ = e.what();
      }
    });
  }

  void stop() {
    if (server_ != nullptr) server_->request_stop();
    if (loop_.joinable()) loop_.join();
    server_.reset();
    estimator_.reset();
  }

  std::uint16_t port() const { return server_->port(); }
  net::ShardedServer& server() { return *server_; }
  unsigned threads() const { return estimator_->num_threads(); }
  const std::string& loop_error() const { return loop_error_; }

 private:
  std::unique_ptr<service::BatchEstimator> estimator_;
  std::unique_ptr<net::ShardedServer> server_;
  std::thread loop_;
  std::string loop_error_;
};

struct Expected {
  double energy_pj = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
};

/// One response's fields, read straight from the body: the server prints
/// doubles with round-trip precision, so the values compare bit for bit.
struct Reply {
  double energy_pj = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  bool cache_hit = false;
  double queue_s = 0.0;
  double cache_probe_s = 0.0;
  double worker_s = 0.0;
};

std::string_view raw_field(std::string_view body, std::string_view key) {
  const std::size_t at = body.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + key.size();
  const std::size_t end = body.find_first_of(",}", begin);
  return body.substr(begin, end == std::string_view::npos ? end : end - begin);
}

template <typename T>
bool number_field(std::string_view body, std::string_view key, T* out) {
  const std::string_view raw = raw_field(body, key);
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, *out);
  return !raw.empty() && ec == std::errc() && ptr == end;
}

bool parse_reply(std::string_view body, Reply* reply) {
  const std::string_view hit = raw_field(body, "\"cache_hit\":");
  reply->cache_hit = hit == "true";
  return (hit == "true" || hit == "false") &&
         number_field(body, "\"energy_pj\":", &reply->energy_pj) &&
         number_field(body, "\"instructions\":", &reply->instructions) &&
         number_field(body, "\"cycles\":", &reply->cycles) &&
         number_field(body, "\"queue_seconds\":", &reply->queue_s) &&
         number_field(body, "\"cache_probe_seconds\":",
                      &reply->cache_probe_s) &&
         number_field(body, "\"worker_seconds\":", &reply->worker_s);
}

/// Compares a reply with the in-process reference; returns "" when equal.
std::string compare(const Reply& reply, const Expected& expected,
                    bool want_hit, const std::string& name) {
  std::ostringstream os;
  os.precision(17);
  if (reply.energy_pj != expected.energy_pj ||
      reply.instructions != expected.instructions ||
      reply.cycles != expected.cycles) {
    os << name << ": served energy_pj=" << reply.energy_pj
       << " instructions=" << reply.instructions << " cycles=" << reply.cycles
       << ", reference " << expected.energy_pj << "/" << expected.instructions
       << "/" << expected.cycles;
  } else if (reply.cache_hit != want_hit) {
    os << name << ": cache_hit=" << reply.cache_hit << ", expected "
       << want_hit;
  }
  return os.str();
}

/// What one client saw in one pass.
struct Tally {
  std::vector<Sample> samples;  ///< latency +inf marks a failed request
  std::vector<double> lag_us;      ///< reply received -> next request sent
  std::vector<double> queue_s;
  double cache_probe_s = 0.0;
  double worker_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  ///< 503 and 504, a subset of failed
  std::vector<std::string> mismatches;
  std::vector<std::string> errors;  ///< transport failures (not mismatches)

  void merge(const Tally& other) {
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    queue_s.insert(queue_s.end(), other.queue_s.begin(), other.queue_s.end());
    cache_probe_s += other.cache_probe_s;
    worker_s += other.worker_s;
    attempted += other.attempted;
    ok += other.ok;
    failed += other.failed;
    rejected += other.rejected;
    for (const std::string& m : other.mismatches) {
      if (mismatches.size() < kMaxReportedMismatches) mismatches.push_back(m);
    }
    for (const std::string& e : other.errors) {
      if (errors.size() < kMaxReportedMismatches) errors.push_back(e);
    }
  }
};

struct PassResult {
  Tally tally;
  double wall_s = 0.0;
  double window_s = 0.0;
  double latency_sum_s = 0.0;  ///< over successful requests

  double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(tally.ok) / wall_s : 0.0;
  }
};

class Workload {
 public:
  Workload(const Options& options, bool warm)
      : options_(options), warm_(warm) {}

  /// Model load, input generation, server boot and (warm) the fill pass.
  void setup() {
    stack_.stop();
    model_ = std::make_unique<model::EnergyMacroModel>(
        model::EnergyMacroModel::deserialize(
            tools::read_file(options_.model_path)));
    const auto generate = Clock::now();
    apps_ = held_out_apps(options_.seed);
    kernels_ = draw_kernels(derive(options_.seed, warm_ ? 2 : 1),
                            warm_ ? kWarmRequests : kColdKernels);
    prefixes_.clear();
    for (const KernelInstance& k : kernels_) {
      prefixes_.push_back(make_body_prefix(k));
    }
    warm_bodies_.clear();
    if (warm_) {
      for (std::size_t i = 0; i < kernels_.size(); ++i) {
        warm_bodies_.push_back(estimate_body(prefixes_[i], i));
      }
    }
    generate_s_ = seconds_since(generate);
    stack_.boot(*model_);
    fill_replies_.clear();
    if (warm_) {
      net::HttpClient client("127.0.0.1", stack_.port(), 60'000);
      for (const std::string& body : warm_bodies_) {
        const auto response = client.post("/v1/estimate", body);
        fill_replies_.push_back(response.status == 200 ? response.body : "");
      }
    }
  }

  /// In-process references (sim::Engine::kReference) on the same request
  /// bodies the server parses.
  void compute_references(RunReport& report) {
    expected_.clear();
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      const std::string body = warm_ ? warm_bodies_[i]
                                     : estimate_body(prefixes_[i],
                                                     kReferenceNonce);
      const net::api::EstimateRequest request =
          net::api::parse_estimate_request(JsonValue::parse(body));
      const model::EnergyEstimate estimate = model::estimate_energy(
          *model_, request.job.program, {}, sim::Cpu::kDefaultBudget,
          sim::Engine::kReference);
      expected_.push_back({estimate.energy_pj, estimate.stats.instructions,
                           estimate.stats.cycles});
      fingerprint_.str(kernels_[i].name);
      fingerprint_.u64(estimate.stats.instructions);
      fingerprint_.u64(estimate.stats.cycles);
      fingerprint_.f64(estimate.energy_pj);
      for (double v : estimate.variables.values) fingerprint_.f64(v);
      instructions_ += estimate.stats.instructions;
      cycles_ += estimate.stats.cycles;
    }
    for (std::size_t i = 0; i < fill_replies_.size(); ++i) {
      ++report.attempted;
      Reply reply;
      if (!parse_reply(fill_replies_[i], &reply)) {
        ++report.failed;
        report.mismatch("fill request " + kernels_[i].name + " failed");
        continue;
      }
      const std::string diff =
          compare(reply, expected_[i], false, kernels_[i].name);
      if (!diff.empty()) report.mismatch("fill " + diff);
    }
  }

  /// One closed-loop pass of kClients connections.
  PassResult run_pass(std::uint64_t pass, double seconds,
                      std::uint64_t cap, SpanLog* spans) {
    std::vector<Tally> tallies(kClients);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(c, pass, start, deadline, cap, spans, tallies[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    PassResult result;
    result.wall_s = seconds_since(start);
    result.window_s = seconds;
    for (const Tally& t : tallies) result.tally.merge(t);
    for (const Sample& s : result.tally.samples) {
      if (std::isfinite(s.latency_ms)) {
        result.latency_sum_s += s.latency_ms * 1e-3;
      }
    }
    return result;
  }

  RunReport run(SpanLog* spans) {
    RunReport report;
    time_setup([&] { setup(); }, setup_times_);
    compute_references(report);
    report.fingerprint = fingerprint_.digest().hex();

    const bool traced = spans != nullptr;
    const PassResult plain =
        run_pass(0, traced ? options_.seconds / 2 : options_.seconds,
                 std::numeric_limits<std::uint64_t>::max(), nullptr);
    account(plain, report);
    if (!traced) {
      // Peak RSS of the measured run, before the second set-up block
      // re-boots the server.
      report.metrics["peak_rss_mb"] = peak_rss_mb();
      time_setup([&] { setup(); }, setup_times_);
      end_to_end(plain, report);
    } else {
      traced_pass(plain, *spans, report);
    }
    stack_.stop();
    if (!stack_.loop_error().empty()) {
      report.mismatch("server loop failed: " + stack_.loop_error());
    }
    return report;
  }

 private:
  void client_loop(unsigned c, std::uint64_t pass, Clock::time_point start,
                   Clock::time_point deadline, std::uint64_t cap,
                   SpanLog* spans, Tally& tally) {
    net::HttpClient client("127.0.0.1", stack_.port(), 60'000);
    auto ready = Clock::now();
    std::string cold_body;
    for (std::uint64_t j = 0; j < cap && Clock::now() < deadline; ++j) {
      const std::size_t index = (j * kClients + c) % kernels_.size();
      const std::string* body = &cold_body;
      const std::uint64_t request_id =
          (pass << 48) | (std::uint64_t{c} << 32) | j;
      if (warm_) {
        body = &warm_bodies_[index];
      } else {
        cold_body = estimate_body(prefixes_[index], request_id);
      }
      const auto t0 = Clock::now();
      tally.lag_us.push_back(
          std::chrono::duration<double, std::micro>(t0 - ready).count());
      ++tally.attempted;
      const Scope span(spans, "client.request", "client", 0, request_id);
      int status = 0;
      std::string response_body;
      try {
        auto response = client.post("/v1/estimate", *body);
        status = response.status;
        response_body = std::move(response.body);
      } catch (const std::exception& e) {
        if (tally.errors.size() < kMaxReportedMismatches) {
          tally.errors.push_back(e.what());
        }
      }
      ready = Clock::now();
      const double done_s =
          std::chrono::duration<double>(ready - start).count();
      if (status != 200) {
        ++tally.failed;
        if (status == 503 || status == 504) ++tally.rejected;
        tally.samples.push_back(
            {done_s, std::numeric_limits<double>::infinity()});
        continue;
      }
      tally.samples.push_back(
          {done_s,
           std::chrono::duration<double, std::milli>(ready - t0).count()});
      ++tally.ok;
      Reply reply;
      std::string diff = "unreadable response body";
      if (parse_reply(response_body, &reply)) {
        diff = compare(reply, expected_[index], warm_, kernels_[index].name);
      }
      if (!diff.empty() && tally.mismatches.size() < kMaxReportedMismatches) {
        tally.mismatches.push_back(diff);
      }
      if (!diff.empty()) continue;
      if (spans != nullptr) {
        tally.queue_s.push_back(reply.queue_s);
        tally.cache_probe_s += reply.cache_probe_s;
        tally.worker_s += reply.worker_s;
      }
    }
  }

  /// Failure accounting and correctness, shared by both modes.
  void account(const PassResult& pass, RunReport& report) {
    report.attempted += pass.tally.attempted;
    report.failed += pass.tally.failed;
    for (const std::string& m : pass.tally.mismatches) report.mismatch(m);
    for (const std::string& e : pass.tally.errors) {
      report.lines.push_back("request error: " + e);
    }
  }

  void end_to_end(const PassResult& pass, RunReport& report) {
    const double setup_s = median(setup_times_);
    const Tally& t = pass.tally;
    const SliceStats sliced = slice_stats(t.samples, pass.window_s);
    const std::uint64_t n = sliced.samples;
    report.metrics["setup_s"] = setup_s;
    report.metrics["throughput_per_s"] = sliced.throughput;
    report.metrics["latency_p50_ms"] = sliced.p50_ms;
    report.metrics["app_error_pct"] =
        app_error_pct(*model_, apps_, nullptr);

    report.line("setup_s", setup_s, "s", setup_times_.size());
    report.line("throughput_rps", sliced.throughput, "1/s", n);
    report.lines.push_back(slice_line(sliced));
    double body_bytes = 0.0;
    for (const std::string& prefix : prefixes_) body_bytes += prefix.size();
    report.line("request_body_bytes_mean",
                body_bytes / static_cast<double>(prefixes_.size()), "bytes",
                prefixes_.size());
    report.line("latency_p50_ms", report.metrics["latency_p50_ms"], "ms", n);
    report.line("latency_p99_ms", sliced.p99_ms, "ms", n);
    report.line("fail_ratio",
                t.attempted == 0 ? 0.0
                                 : static_cast<double>(t.failed) /
                                       static_cast<double>(t.attempted),
                "ratio", t.attempted);
    report.line("rejected_503_504", static_cast<double>(t.rejected), "count",
                t.attempted);
    report.line("peak_rss_mb", report.metrics["peak_rss_mb"], "MB", 1);
    report.line("app_error_pct", report.metrics["app_error_pct"], "%", 10);
    std::vector<double> lag = t.lag_us;
    const double lag_p99 = percentile(lag, 0.99);
    const double p50_us = report.metrics["latency_p50_ms"] * 1e3;
    std::ostringstream os;
    os << "generator closed-loop clients=" << kClients
       << " lag_p99_us=" << lag_p99 << " sent_on_time="
       << (lag_p99 < 0.25 * p50_us ? "yes" : "no");
    report.lines.push_back(os.str());
  }

  void traced_pass(const PassResult& plain, SpanLog& spans,
                   RunReport& report) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_thread_capacity(kTraceRingSpans);
    tracer.clear();
    const std::string before = stack_.server().render_cluster_metrics();
    tracer.set_enabled(true);
    const PassResult traced =
        run_pass(1, options_.seconds / 2, kTracedRequestsPerClient, &spans);
    tracer.set_enabled(false);
    const std::string after = stack_.server().render_cluster_metrics();
    const std::vector<obs::Span> obs_spans = tracer.snapshot();
    spans.fold_obs(obs_spans);
    account(traced, report);

    std::map<std::string, double>& m = report.metrics;
    for (const char* stage : {"parse", "route", "respond"}) {
      const std::string label = std::string("{stage=\"") + stage + "\"}";
      const double sum =
          metric_delta(before, after, "xtc_stage_duration_seconds_sum" + label);
      const double count = metric_delta(
          before, after, "xtc_stage_duration_seconds_count" + label);
      m[std::string("net.") + stage + "_us"] =
          count > 0.0 ? sum / count * 1e6 : 0.0;
    }
    const Tally& t = traced.tally;
    const double ok = static_cast<double>(std::max<std::uint64_t>(t.ok, 1));
    m["service.cache_probe_us"] = t.cache_probe_s / ok * 1e6;
    std::vector<double> queue_us;
    for (double s : t.queue_s) queue_us.push_back(s * 1e6);
    m["service.queue_wait_us_p50"] = percentile(queue_us, 0.50);
    m["service.queue_wait_us_p99"] = percentile(queue_us, 0.99);
    m["service.worker_busy_ratio"] =
        t.worker_s / (stack_.threads() * traced.wall_s);
    const double hits = metric_delta(before, after, "xtc_cache_hits_total");
    const double misses = metric_delta(before, after, "xtc_cache_misses_total");
    m["service.cache_hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["service.cache_bytes"] = metric_value(after, "xtc_cache_bytes");
    m["sim.instructions"] = static_cast<double>(instructions_);
    m["sim.cycles"] = static_cast<double>(cycles_);
    m["workloads.suite_build_ms"] = generate_s_ * 1e3;
    m["obs.trace_overhead_ratio"] =
        traced.throughput() > 0.0 ? plain.throughput() / traced.throughput()
                                  : 0.0;

    report.layer_counts["net"].calls += t.attempted;
    report.layer_counts["net"].failures += t.failed;
    report.layer_counts["service"].calls += t.ok + t.rejected;
    report.layer_counts["service"].failures += t.rejected;
    report.layer_counts["workloads"].calls += kernels_.size();
    report.layer_counts["obs"].calls += obs_spans.size();
    report.layer_counts["obs"].failures += tracer.dropped_spans();

    // Attribution: the server-side obs spans of every request, charged
    // to layers by self time, against the clients' summed latency.
    const std::vector<Span> all = spans.snapshot();
    const std::map<std::string, double> self =
        self_by_layer(all, [](const Span& s) { return s.from_obs; });
    double attributed = 0.0;
    for (const auto& [layer, seconds] : self) {
      report.self_share[layer] = seconds / traced.latency_sum_s;
      attributed += seconds;
    }
    m["obs.unattributed_share"] = 1.0 - attributed / traced.latency_sum_s;

    std::vector<ProbeInput> inputs;
    for (std::size_t i = 0; i < std::min(kProbeInputs, kernels_.size()); ++i) {
      inputs.push_back({kernels_[i].program, kernels_[i].asm_text,
                        kernels_[i].tie_text,
                        estimate_body(prefixes_[i], kReferenceNonce)});
    }
    probe_layers(inputs, *model_, spans, report);
  }

  static double metric_value(const std::string& exposition,
                             const std::string& series) {
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
      if (line.size() > series.size() && line[series.size()] == ' ' &&
          line.compare(0, series.size(), series) == 0) {
        return std::stod(line.substr(series.size() + 1));
      }
    }
    return 0.0;
  }

  static double metric_delta(const std::string& before,
                             const std::string& after,
                             const std::string& series) {
    return metric_value(after, series) - metric_value(before, series);
  }

  const Options& options_;
  const bool warm_;
  ServingStack stack_;
  std::unique_ptr<model::EnergyMacroModel> model_;
  std::vector<model::TestProgram> apps_;
  std::vector<KernelInstance> kernels_;
  std::vector<std::string> prefixes_;
  std::vector<std::string> warm_bodies_;
  std::vector<std::string> fill_replies_;
  std::vector<Expected> expected_;
  double generate_s_ = 0.0;
  std::vector<double> setup_times_;
  Fingerprint fingerprint_;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace

RunReport run_serve(const Options& options, bool warm, SpanLog* spans) {
  Workload workload(options, warm);
  return workload.run(spans);
}

}  // namespace perfbench
