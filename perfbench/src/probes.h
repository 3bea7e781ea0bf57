#pragma once

// Layer probes for the traced run: the benchmark times calls into each
// module's public functions on the workload's own inputs, one span per
// call, and folds the means into the per-layer metrics.

#include <string>
#include <vector>

#include "model/macro_model.h"
#include "model/test_program.h"
#include "report.h"

namespace perfbench {

struct ProbeInput {
  exten::model::TestProgram program;
  std::string asm_text;  ///< "" = skip the isa probe
  std::string tie_text;  ///< "" = skip the tie probe
  std::string body;      ///< /v1/estimate body; "" = skip the net probe
};

/// Fills net.api_compile_us, isa.assemble_us, tie.compile_us,
/// service.digest_us, sim.setup_us/run_us/profile_us/mips,
/// model.estimate_us and model.dot_ns, and counts each call (and each
/// call that threw) against its layer.
void probe_layers(const std::vector<ProbeInput>& inputs,
                  const exten::model::EnergyMacroModel& model, SpanLog& spans,
                  RunReport& report);

}  // namespace perfbench
