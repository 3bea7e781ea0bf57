// characterize: model::characterize over workloads::characterization_suite
// — 40 programs through the reference ISS and power::RtlPowerEstimator,
// then the QR fit (the paper's Fig. 2 steps 1-8, paid once per
// processor). The only workload that runs power/, linalg/ and the
// reference engine.
//
// The suite is the library default (data seed 7, the suite behind
// data/macro.model): its run time does not depend on the data seed, but
// the fitted model's accuracy does (3.4-4.5 % mean app error across
// seeds), which would make app_error_pct a seed lottery. The workload
// seed draws the held-out applications, as in every workload.
//
// The traced run repeats the flow step by step (reference ISS run,
// observe_program and fit_from_observations, one span each) and checks
// that it fits the same coefficients as characterize().

#include <algorithm>
#include <sstream>

#include "model/characterize.h"
#include "model/estimate.h"
#include "probes.h"
#include "report.h"
#include "util/stats.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

using namespace exten;

/// Recomputes every residual and the summary errors from the fitted
/// coefficients; each must equal what characterize() reported.
void check_residuals(const model::CharacterizationResult& result,
                     RunReport& report) {
  StreamingStats errors;
  for (const model::ProgramObservation& obs : result.observations) {
    const double predicted = result.model.estimate_pj(obs.variables);
    const double error = percent_error(predicted, obs.reference_pj);
    errors.add(error);
    if (predicted != obs.predicted_pj || error != obs.fitting_error_percent) {
      std::ostringstream os;
      os.precision(17);
      os << "residual of " << obs.name << ": reported "
         << obs.fitting_error_percent << "% (" << obs.predicted_pj
         << " pJ), recomputed " << error << "% (" << predicted << " pJ)";
      report.mismatch(os.str());
    }
  }
  if (errors.rms() != result.rms_error_percent) {
    report.mismatch("fit rms error differs from the recomputed residuals");
  }
}

bool same_coefficients(const model::EnergyMacroModel& a,
                       const model::EnergyMacroModel& b) {
  for (std::size_t i = 0; i < model::kNumVariables; ++i) {
    if (a.coefficient(i) != b.coefficient(i)) return false;
  }
  return true;
}

void fingerprint_result(const model::CharacterizationResult& result,
                        Fingerprint& fingerprint) {
  for (std::size_t i = 0; i < model::kNumVariables; ++i) {
    fingerprint.f64(result.model.coefficient(i));
  }
  for (const model::ProgramObservation& obs : result.observations) {
    fingerprint.str(obs.name);
    fingerprint.u64(obs.instructions);
    fingerprint.u64(obs.cycles);
    fingerprint.f64(obs.reference_pj);
    for (double v : obs.variables.values) fingerprint.f64(v);
  }
}

void traced_run(const std::vector<model::TestProgram>& suite,
                const model::CharacterizationResult& plain, double plain_s,
                double suite_build_s, SpanLog& spans, RunReport& report) {
  std::vector<model::ProgramObservation> observations;
  double reference_s = 0.0;
  double observe_s = 0.0;
  double slowest_s = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  model::EnergyMacroModel fitted = plain.model;
  double fit_s = 0.0;
  const auto start = Clock::now();
  {
    const Scope root(&spans, "model.characterize", "model");
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const model::TestProgram& program = suite[i];
      // The ISS and profiling alone (no RTL observer): what observe_program
      // costs without power estimation.
      {
        const Scope span(&spans, "sim.reference_run", "sim", root.id(), i + 1);
        const auto t = Clock::now();
        model::estimate_energy(plain.model, program, {},
                               sim::Cpu::kDefaultBudget,
                               sim::Engine::kReference);
        reference_s += seconds_since(t);
        ++report.layer_counts["sim"].calls;
      }
      const Scope span(&spans, "model.observe_program", "power", root.id(),
                       i + 1);
      const auto t = Clock::now();
      observations.push_back(model::observe_program(program));
      const double s = seconds_since(t);
      observe_s += s;
      slowest_s = std::max(slowest_s, s);
      instructions += observations.back().instructions;
      cycles += observations.back().cycles;
      ++report.layer_counts["power"].calls;
    }
    const Scope span(&spans, "model.fit_from_observations", "linalg",
                     root.id());
    const auto t = Clock::now();
    fitted = model::fit_from_observations(observations);
    fit_s = seconds_since(t);
    ++report.layer_counts["linalg"].calls;
  }
  const double wall_s = seconds_since(start);
  report.attempted += observations.size();
  if (!same_coefficients(fitted, plain.model)) {
    report.mismatch("step-by-step fit differs from characterize()");
  }

  // Characterization time without the extra reference runs.
  const double flow_s = wall_s - reference_s;
  std::map<std::string, double>& m = report.metrics;
  m["sim.reference_run_s"] = reference_s;
  m["power.rtl_s"] = observe_s - reference_s;
  m["power.slowest_program_s"] = slowest_s;
  m["linalg.fit_ms"] = fit_s * 1e3;
  m["sim.instructions"] = static_cast<double>(instructions);
  m["sim.cycles"] = static_cast<double>(cycles);
  m["workloads.suite_build_ms"] = suite_build_s * 1e3;
  m["obs.trace_overhead_ratio"] = flow_s / plain_s;
  m["obs.unattributed_share"] = 1.0 - (observe_s + fit_s) / flow_s;
  report.self_share["sim"] = reference_s / flow_s;
  report.self_share["power"] = (observe_s - reference_s) / flow_s;
  report.self_share["linalg"] = fit_s / flow_s;
  report.layer_counts["workloads"].calls += 1;

  std::vector<ProbeInput> inputs;
  for (const model::TestProgram& program : suite) {
    inputs.push_back({program, "", "", ""});
  }
  probe_layers(inputs, plain.model, spans, report);
}

}  // namespace

RunReport run_characterize(const Options& options, SpanLog* spans) {
  RunReport report;
  std::vector<model::TestProgram> suite;
  std::vector<model::TestProgram> apps;
  double suite_build_s = 0.0;
  const auto setup = [&] {
    const auto start = Clock::now();
    suite = workloads::characterization_suite();
    suite_build_s = seconds_since(start);
    apps = held_out_apps(options.seed);
  };
  std::vector<double> setup_times;
  time_setup(setup, setup_times);

  const bool traced = spans != nullptr;
  std::vector<double> times;
  std::vector<model::CharacterizationResult> results;
  // Whole characterizations only: another one starts only when it would
  // still end inside the window (one takes longer than a typical window).
  const auto start = Clock::now();
  do {
    const auto t = Clock::now();
    results.push_back(model::characterize(suite));
    times.push_back(seconds_since(t));
  } while (!traced &&
           seconds_since(start) + times.back() <= options.seconds);

  const model::CharacterizationResult& first = results.front();
  for (const model::CharacterizationResult& r : results) {
    check_residuals(r, report);
    if (!same_coefficients(r.model, first.model)) {
      report.mismatch("repeated characterizations fit different models");
    }
  }
  report.attempted = results.size() * suite.size();
  Fingerprint fingerprint;
  fingerprint_result(first, fingerprint);
  const double app_error = app_error_pct(first.model, apps, &fingerprint);
  report.fingerprint = fingerprint.digest().hex();

  if (traced) {
    traced_run(suite, first, times.front(), suite_build_s, *spans, report);
    return report;
  }
  std::map<std::string, double>& m = report.metrics;
  m["peak_rss_mb"] = peak_rss_mb();
  time_setup(setup, setup_times);
  const double setup_s = median(setup_times);
  double total_s = 0.0;
  for (double t : times) total_s += t;
  std::vector<double> ms;
  for (double t : times) ms.push_back(t * 1e3);
  m["setup_s"] = setup_s;
  m["throughput_per_s"] =
      static_cast<double>(results.size() * suite.size()) / total_s;
  m["latency_p50_ms"] = percentile(ms, 0.50);
  m["app_error_pct"] = app_error;
  report.line("setup_s", setup_s, "s", setup_times.size());
  report.line("characterize_s", median(times), "s", times.size());
  report.line("programs_per_s", m["throughput_per_s"], "1/s",
              results.size() * suite.size());
  report.line("fail_ratio", 0.0, "ratio", report.attempted);
  report.line("peak_rss_mb", m["peak_rss_mb"], "MB", 1);
  report.line("fit_rms_error_pct", first.rms_error_percent, "%",
              first.observations.size());
  report.line("app_error_pct", app_error, "%", 10);
  return report;
}

}  // namespace perfbench
