#include "probes.h"

#include "isa/assembler.h"
#include "model/estimate.h"
#include "model/profiler.h"
#include "net/api.h"
#include "service/content_hash.h"
#include "sim/cpu.h"
#include "sim/stats.h"
#include "tie/compiler.h"
#include "util/json.h"

namespace perfbench {

namespace {

using namespace exten;

/// Volatile store target so the timed dot products are not optimized away.
volatile double g_dot_sink = 0.0;

/// Retirement sink that keeps nothing: the bare engine cost.
struct DiscardSink {
  void on_run_begin() {}
  void on_retire(const sim::RetiredInstruction&) {}
  void on_run_end(std::uint64_t, std::uint64_t) {}
};

/// The profiler + stats sink estimate_energy runs (model/estimate.cpp).
struct ProfilerStatsSink {
  model::MacroModelProfiler& profiler;
  sim::StatsCollector& stats;
  void on_run_begin() {
    profiler.on_run_begin();
    stats.on_run_begin();
  }
  void on_retire(const sim::RetiredInstruction& r) {
    profiler.on_retire(r);
    stats.on_retire(r);
  }
  void on_run_end(std::uint64_t instructions, std::uint64_t cycles) {
    profiler.on_run_end(instructions, cycles);
    stats.on_run_end(instructions, cycles);
  }
};

/// Mean of timed calls, with call/failure counts charged to a layer.
class Probe {
 public:
  Probe(SpanLog& spans, RunReport& report, std::uint64_t parent,
        const char* name, const char* layer)
      : spans_(spans), report_(report), parent_(parent), name_(name),
        layer_(layer) {}

  /// Times `call` once; returns false when it threw.
  template <typename Call>
  bool time(std::uint64_t request, Call&& call) {
    LayerCount& count = report_.layer_counts[layer_];
    ++count.calls;
    const Scope scope(&spans_, name_, layer_, parent_, request);
    const auto start = Clock::now();
    try {
      call();
    } catch (const std::exception&) {
      ++count.failures;
      return false;
    }
    total_ += seconds_since(start);
    ++n_;
    return true;
  }

  double mean_us() const { return n_ == 0 ? 0.0 : total_ / n_ * 1e6; }
  double total_seconds() const { return total_; }

 private:
  SpanLog& spans_;
  RunReport& report_;
  std::uint64_t parent_;
  const char* name_;
  const char* layer_;
  double total_ = 0.0;
  std::size_t n_ = 0;
};

}  // namespace

void probe_layers(const std::vector<ProbeInput>& inputs,
                  const model::EnergyMacroModel& macro_model, SpanLog& spans,
                  RunReport& report) {
  const Scope root(&spans, "probes", "obs");
  Probe api(spans, report, root.id(), "api.parse_estimate_request", "net");
  Probe assemble(spans, report, root.id(), "isa.assemble", "isa");
  Probe compile(spans, report, root.id(), "tie.compile_tie_source", "tie");
  Probe digest(spans, report, root.id(), "service.digest", "service");
  Probe setup(spans, report, root.id(), "sim.setup", "sim");
  Probe run(spans, report, root.id(), "sim.run_discard", "sim");
  Probe profiled(spans, report, root.id(), "sim.run_profiled", "sim");
  Probe estimate(spans, report, root.id(), "model.estimate_energy", "model");
  Probe dot(spans, report, root.id(), "model.estimate_pj", "model");

  const service::Digest model_digest = service::hash_macro_model(macro_model);
  std::uint64_t instructions = 0;
  constexpr int kDotReps = 1000;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ProbeInput& in = inputs[i];
    const std::uint64_t request = i + 1;
    if (!in.body.empty()) {
      const JsonValue parsed = JsonValue::parse(in.body);
      api.time(request, [&] { net::api::parse_estimate_request(parsed); });
    }
    if (!in.tie_text.empty()) {
      compile.time(request, [&] { tie::compile_tie_source(in.tie_text); });
    }
    if (!in.asm_text.empty()) {
      isa::AssemblerOptions options;
      options.custom_mnemonics = in.program.tie->assembler_mnemonics();
      assemble.time(request, [&] { isa::assemble(in.asm_text, options); });
    }
    digest.time(request, [&] {
      service::ContentHasher budget;
      budget.u64(sim::Cpu::kDefaultBudget);
      service::combine_digests(
          {service::hash_program_image(in.program.image),
           service::hash_tie_configuration(*in.program.tie),
           service::hash_processor_config({}), model_digest,
           budget.digest()});
    });

    std::unique_ptr<sim::Cpu> cpu;
    setup.time(request, [&] {
      cpu = std::make_unique<sim::Cpu>(sim::ProcessorConfig{},
                                       *in.program.tie);
      cpu->load_program(in.program.image);
    });
    if (cpu == nullptr) continue;
    run.time(request, [&] {
      DiscardSink sink;
      instructions += cpu->run_with_sink(sink).instructions;
    });
    sim::Cpu fresh(sim::ProcessorConfig{}, *in.program.tie);
    fresh.load_program(in.program.image);
    profiled.time(request, [&] {
      model::MacroModelProfiler profiler(*in.program.tie);
      sim::StatsCollector stats;
      ProfilerStatsSink sink{profiler, stats};
      fresh.run_with_sink(sink);
    });

    model::EnergyEstimate result;
    estimate.time(request, [&] {
      result = model::estimate_energy(macro_model, in.program);
    });
    dot.time(request, [&] {
      for (int r = 0; r < kDotReps; ++r) {
        g_dot_sink = macro_model.estimate_pj(result.variables);
      }
    });
  }

  report.metrics["net.api_compile_us"] = api.mean_us();
  report.metrics["isa.assemble_us"] = assemble.mean_us();
  report.metrics["tie.compile_us"] = compile.mean_us();
  report.metrics["service.digest_us"] = digest.mean_us();
  report.metrics["sim.setup_us"] = setup.mean_us();
  report.metrics["sim.run_us"] = run.mean_us();
  report.metrics["sim.profile_us"] = profiled.mean_us() - run.mean_us();
  report.metrics["sim.mips"] =
      run.total_seconds() > 0.0
          ? static_cast<double>(instructions) / run.total_seconds() * 1e-6
          : 0.0;
  report.metrics["model.estimate_us"] = estimate.mean_us();
  report.metrics["model.dot_ns"] = dot.mean_us() * 1e3 / kDotReps;
}

}  // namespace perfbench
