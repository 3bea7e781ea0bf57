#pragma once

// Strict command-line parsing for the benchmark. Every numeric flag goes
// through tools::parse_count (integers) or parse_real (finite reals), so
// "nan", "inf", "8x" and negative values are rejected with an error that
// names the flag instead of silently becoming 0 or switching a gate off.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The four workloads, in the order the doc lists them.
inline constexpr std::string_view kWorkloads[] = {"serve_cold", "serve_warm",
                                                  "dse_genetic",
                                                  "characterize"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window (the traced run splits it into an
  /// untraced and a traced half).
  double seconds = 10.0;
  bool trace = false;
  /// Serialized macro-model the serve and DSE workloads load.
  std::string model_path = "perfbench/data/macro.model";
  /// Where the traced run writes its spans (empty = not written).
  std::string trace_out;
};

/// Parses a finite real in [min_value, max_value]; throws exten::Error
/// naming `flag` on garbage, trailing junk, nan/inf or a value out of
/// range.
double parse_real(std::string_view flag, std::string_view text,
                  double min_value, double max_value);

/// Parses argv[1..]: "--flag value" pairs only. Throws exten::Error
/// naming the offending flag on an unknown flag, a missing value, a
/// positional argument or an invalid value.
Options parse_flags(const std::vector<std::string>& args);

}  // namespace perfbench
