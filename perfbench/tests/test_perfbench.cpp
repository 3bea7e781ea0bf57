// Tests of the benchmark's own code: strict flag parsing, image rendering
// and the span self-time arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "flags.h"
#include "inputs.h"
#include "isa/assembler.h"
#include "model/estimate.h"
#include "report.h"
#include "spans.h"
#include "tools/tool_common.h"
#include "util/error.h"
#include "util/json.h"

namespace perfbench {
namespace {

Options parse(std::vector<std::string> args) { return parse_flags(args); }

/// Expects parse_flags to reject `args` with a message naming `flag`.
void expect_rejected(std::vector<std::string> args, const std::string& flag) {
  try {
    parse_flags(args);
    FAIL() << "accepted invalid --" << flag;
  } catch (const exten::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
        << e.what();
  }
}

TEST(Flags, ParsesTheDriverCommandLine) {
  const Options o = parse({"--workload", "serve_warm", "--seed", "7",
                           "--seconds", "10", "--trace", "1"});
  EXPECT_EQ(o.workload, "serve_warm");
  EXPECT_EQ(o.seed, 7u);
  EXPECT_DOUBLE_EQ(o.seconds, 10.0);
  EXPECT_TRUE(o.trace);
}

TEST(Flags, RejectsNonFiniteMalformedAndNegativeValues) {
  for (const char* bad : {"nan", "inf", "-inf", "8x", "-1", "", "1e999"}) {
    expect_rejected({"--workload", "characterize", "--seconds", bad},
                    "seconds");
  }
  for (const char* bad : {"nan", "inf", "8x", "-3", "1.5", ""}) {
    expect_rejected({"--workload", "characterize", "--seed", bad}, "seed");
  }
  expect_rejected({"--workload", "dse_genetic", "--trace", "2"}, "trace");
}

TEST(Flags, RejectsUnknownMissingAndRepeatedFlags) {
  expect_rejected({"--workload", "serve_cold", "--sedd", "1"}, "sedd");
  expect_rejected({"--workload", "serve_cold", "--seed"}, "seed");
  expect_rejected({"--workload", "serve_cold", "--seed", "1", "--seed", "2"},
                  "seed");
  expect_rejected({"--workload", "nope"}, "workload");
  expect_rejected({"--seed", "1"}, "workload");
  EXPECT_THROW(parse({"--workload", "serve_cold", "stray"}), exten::Error);
}

TEST(ParseReal, AcceptsFiniteValuesInRange) {
  EXPECT_DOUBLE_EQ(parse_real("x", "2.5", 0.0, 10.0), 2.5);
  EXPECT_THROW(parse_real("x", "11", 0.0, 10.0), exten::Error);
}

TEST(Inputs, RenderedKernelsAssembleToTheSameImageAndEstimate) {
  const std::vector<KernelInstance> kernels = draw_kernels(42, 20);
  const auto model = exten::model::EnergyMacroModel(
      exten::linalg::Vector(exten::model::kNumVariables, 1.0));
  for (const KernelInstance& k : kernels) {
    const exten::isa::ProgramImage rendered =
        exten::isa::assemble(k.asm_text);
    const exten::isa::ProgramImage& original = k.program.image;
    EXPECT_EQ(rendered.entry_point(), original.entry_point()) << k.name;
    for (const exten::isa::Segment& s : original.segments()) {
      for (std::uint32_t a = s.base; a + 4 <= s.end(); a += 4) {
        ASSERT_EQ(rendered.read_word(a), original.read_word(a)) << k.name;
      }
    }
    exten::model::TestProgram copy = k.program;
    copy.image = rendered;
    EXPECT_EQ(exten::model::estimate_energy(model, copy).stats.cycles,
              exten::model::estimate_energy(model, k.program).stats.cycles)
        << k.name;
  }
}

TEST(Inputs, DrawIsAFunctionOfTheSeed) {
  const auto a = draw_kernels(9, 8);
  const auto b = draw_kernels(9, 8);
  const auto c = draw_kernels(10, 8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].asm_text, b[i].asm_text);
    differs = differs || a[i].asm_text != c[i].asm_text;
  }
  EXPECT_TRUE(differs);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(4);
  spans[0] = {"root", "a", 1, 0, 0, 0, 100, false};
  spans[1] = {"c1", "b", 2, 1, 0, 10, 40, false};
  spans[2] = {"c2", "b", 3, 1, 0, 30, 60, false};  // overlaps c1
  spans[3] = {"g", "c", 4, 2, 0, 20, 25, false};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 50e-9);
  EXPECT_DOUBLE_EQ(self[1], 25e-9);
  EXPECT_DOUBLE_EQ(self[2], 30e-9);
  EXPECT_DOUBLE_EQ(self[3], 5e-9);
}

TEST(Report, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(percentile(v, 1.0)));
}

TEST(Manifest, ListsExactlyTheMetricsTheBenchmarkPrints) {
  const exten::JsonValue manifest =
      exten::JsonValue::parse(exten::tools::read_file(PERFBENCH_MANIFEST));
  std::vector<std::pair<std::string, std::string>> end_to_end;
  for (const MetricSpec& m : kEndToEnd) {
    end_to_end.emplace_back(std::string(m.name), std::string(m.unit));
  }
  const auto listed = [&](std::string_view key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const exten::JsonValue& m : manifest.find(key)->as_array()) {
      out.emplace_back(m.string_or("name", ""), m.string_or("unit", ""));
    }
    return out;
  };
  EXPECT_EQ(listed("end_to_end"), end_to_end);
  EXPECT_EQ(listed("per_layer"), per_layer_catalogue());
  std::vector<std::string> workloads;
  for (const exten::JsonValue& w : manifest.find("workloads")->as_array()) {
    workloads.push_back(w.string_or("name", ""));
  }
  EXPECT_EQ(workloads, std::vector<std::string>(std::begin(kWorkloads),
                                                std::end(kWorkloads)));
}

}  // namespace
}  // namespace perfbench
