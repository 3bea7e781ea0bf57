#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "model/estimate.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace perfbench {

std::vector<std::pair<std::string, std::string>> per_layer_catalogue() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& m : kPerLayer) {
    out.emplace_back(std::string(m.name), std::string(m.unit));
  }
  for (std::string_view layer : kLayers) {
    const std::string prefix(layer);
    out.emplace_back(prefix + ".calls", "count");
    out.emplace_back(prefix + ".failures", "count");
    out.emplace_back(prefix + ".self_share", "ratio");
  }
  return out;
}

void RunReport::line(std::string_view name, double value,
                     std::string_view unit, std::uint64_t samples) {
  std::ostringstream os;
  os.precision(6);
  os << "metric " << name << " " << value << " " << unit
     << " n=" << samples;
  lines.push_back(os.str());
}

std::string result_json(const RunReport& report, bool traced) {
  std::vector<std::pair<std::string, std::string>> catalogue;
  if (traced) {
    catalogue = per_layer_catalogue();
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      catalogue.emplace_back(std::string(m.name), std::string(m.unit));
    }
  }
  exten::JsonWriter w;
  w.begin_object();
  w.field("correct", report.mismatches.empty());
  w.field("attempted", report.attempted);
  w.field("failed", report.failed);
  w.object_field("metrics");
  for (const auto& [name, unit] : catalogue) {
    double value = 0.0;
    if (auto it = report.metrics.find(name); it != report.metrics.end()) {
      value = it->second;
    }
    w.object_field(name);
    w.field("value", value);
    w.field("unit", std::string_view(unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SliceStats slice_stats(const std::vector<Sample>& samples, double window_s) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(window_s / kSliceSeconds)));
  std::vector<std::vector<double>> latency(n);
  for (const Sample& s : samples) {
    const double slice = std::floor(s.done_s / kSliceSeconds);
    if (slice >= 0.0 && slice < static_cast<double>(n)) {
      latency[static_cast<std::size_t>(slice)].push_back(s.latency_ms);
    }
  }
  SliceStats out;
  out.slices = n;
  std::vector<double> throughput, p50, p99;
  for (std::vector<double>& slice : latency) {
    out.samples += slice.size();
    if (slice.empty()) {  // nothing finished for a whole slice
      throughput.push_back(0.0);
      p50.push_back(kSliceSeconds * 1e3);
      p99.push_back(kSliceSeconds * 1e3);
      continue;
    }
    double ok = 0.0;
    for (double ms : slice) ok += std::isfinite(ms) ? 1.0 : 0.0;
    throughput.push_back(ok / kSliceSeconds);
    const auto finite_or_slice = [](double ms) {
      return std::isfinite(ms) ? ms : kSliceSeconds * 1e3;
    };
    p50.push_back(finite_or_slice(percentile(slice, 0.50)));
    p99.push_back(finite_or_slice(percentile(slice, 0.99)));
  }
  out.slice_throughput = throughput;
  out.throughput = median(throughput);
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  return out;
}

std::string slice_line(const SliceStats& stats) {
  std::ostringstream os;
  os.precision(6);
  os << "slices n=" << stats.slices << " throughput_per_s=";
  for (std::size_t i = 0; i < stats.slice_throughput.size(); ++i) {
    os << (i == 0 ? "" : ",") << stats.slice_throughput[i];
  }
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return exten::Rng::derive_seed(seed, stream);
}

std::vector<exten::model::TestProgram> held_out_apps(std::uint64_t seed) {
  return exten::workloads::application_suite(derive(seed, 11));
}

double app_error_pct(const exten::model::EnergyMacroModel& model,
                     const std::vector<exten::model::TestProgram>& apps,
                     Fingerprint* fingerprint) {
  double sum = 0.0;
  for (const exten::model::TestProgram& app : apps) {
    const double estimate = exten::model::estimate_energy(model, app).energy_pj;
    const double reference = exten::model::reference_energy(app).energy_pj;
    sum += std::abs(exten::percent_error(estimate, reference));
    if (fingerprint != nullptr) {
      fingerprint->str(app.name);
      fingerprint->f64(estimate);
      fingerprint->f64(reference);
    }
  }
  return sum / static_cast<double>(apps.size());
}

}  // namespace perfbench
