#include "flags.h"

#include <charconv>
#include <cmath>
#include <map>

#include "tools/tool_common.h"
#include "util/error.h"

namespace perfbench {

using exten::Error;

double parse_real(std::string_view flag, std::string_view text,
                  double min_value, double max_value) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  EXTEN_CHECK(!text.empty() && ec == std::errc() && ptr == end &&
                  std::isfinite(value),
              "--", flag, " expects a finite real number, got '", text, "'");
  EXTEN_CHECK(value >= min_value && value <= max_value, "--", flag,
              " must be in [", min_value, ", ", max_value, "], got ", value);
  return value;
}

Options parse_flags(const std::vector<std::string>& args) {
  // Pairs only: a value that looks like a flag ("--seed --trace") or a
  // dangling flag is an error, never an empty value.
  std::map<std::string, std::string> values;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    EXTEN_CHECK(arg.rfind("--", 0) == 0 && arg.size() > 2,
                "unexpected argument '", arg, "'");
    const std::string name = arg.substr(2);
    EXTEN_CHECK(i + 1 < args.size(), "--", name, " needs a value");
    EXTEN_CHECK(values.emplace(name, args[++i]).second, "--", name,
                " given twice");
  }

  Options options;
  for (const auto& [name, value] : values) {
    if (name == "workload") {
      bool known = false;
      for (std::string_view w : kWorkloads) known = known || w == value;
      EXTEN_CHECK(known, "--workload must be one of serve_cold, serve_warm, "
                         "dse_genetic, characterize; got '", value, "'");
      options.workload = value;
    } else if (name == "seed") {
      options.seed = exten::tools::parse_count("seed", value);
    } else if (name == "seconds") {
      options.seconds = parse_real("seconds", value, 0.5, 120.0);
    } else if (name == "trace") {
      options.trace = exten::tools::parse_count("trace", value, 0, 1) == 1;
    } else if (name == "model") {
      options.model_path = value;
    } else if (name == "trace-out") {
      options.trace_out = value;
    } else {
      throw Error("unknown flag '--", name, "'");
    }
  }
  EXTEN_CHECK(!options.workload.empty(), "--workload is required");
  return options;
}

}  // namespace perfbench
