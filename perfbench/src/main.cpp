// perfbench: one benchmark command for the estimation stack.
//
//   perfbench --workload serve_cold|serve_warm|dse_genetic|characterize
//             [--seed N] [--seconds S] [--trace 0|1] [--model FILE]
//             [--trace-out FILE]
//
// Prints "metric ..." lines (every end-to-end metric under its JSON name
// and the workload's own names, with unit and sample count), a
// "fingerprint" line of the simulated statistics, and as its last line
// one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics of a traced run.
// Exit status: 0 when every correctness check passed, 1 on a mismatch or
// runtime failure, 2 on a bad command line.

#include <csignal>
#include <cmath>
#include <iostream>
#include <memory>

#include "flags.h"
#include "report.h"
#include "spans.h"
#include "util/error.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    options = parse_flags(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const exten::Error& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  try {
    std::unique_ptr<SpanLog> spans;
    if (options.trace) spans = std::make_unique<SpanLog>();
    RunReport report;
    if (options.workload == "serve_cold") {
      report = run_serve(options, false, spans.get());
    } else if (options.workload == "serve_warm") {
      report = run_serve(options, true, spans.get());
    } else if (options.workload == "dse_genetic") {
      report = run_dse(options, spans.get());
    } else {
      report = run_characterize(options, spans.get());
    }
    if (options.trace) {
      for (std::string_view layer : kLayers) {
        const std::string name(layer);
        const LayerCount count = report.layer_counts[name];
        report.metrics[name + ".calls"] = static_cast<double>(count.calls);
        report.metrics[name + ".failures"] =
            static_cast<double>(count.failures);
        report.metrics[name + ".self_share"] = report.self_share[name];
      }
    }
    for (const auto& [name, value] : report.metrics) {
      if (!std::isfinite(value)) {
        report.mismatch("metric " + name + " is not finite");
      }
    }

    for (const std::string& line : report.lines) std::cout << line << "\n";
    if (options.trace) {
      for (const auto& [name, unit] : per_layer_catalogue()) {
        std::cout << "layer " << name << " " << report.metrics[name] << " "
                  << unit << "\n";
      }
    }
    std::cout << "fingerprint " << options.workload << " seed=" << options.seed
              << " " << report.fingerprint << "\n";
    for (const std::string& m : report.mismatches) {
      std::cout << "MISMATCH " << m << "\n";
    }
    if (spans != nullptr && !options.trace_out.empty()) {
      spans->write_json(options.trace_out);
    }
    std::cout << result_json(report, options.trace) << std::endl;
    return report.mismatches.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
}
