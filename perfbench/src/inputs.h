#pragma once

// Request inputs for the serve workloads: Table II kernel instances drawn
// from the workload seed, rendered as `.org`/`.word` assembly text and
// paired with the tie_library spec they were built against.

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.h"
#include "model/test_program.h"

namespace perfbench {

struct KernelInstance {
  std::string name;  ///< "<kernel>-n<size>"
  exten::model::TestProgram program;
  std::string asm_text;  ///< render_image(program.image)
  std::string tie_text;  ///< TIE-lite spec ("" for base-only kernels)
};

/// Draws `count` instances. Instance i runs kernel i % 10; its size lies
/// in [n/2, 2n] of the kernel's application_suite size n (stratified per
/// kernel) and its size and data seed come from `seed`.
std::vector<KernelInstance> draw_kernels(std::uint64_t seed,
                                         std::size_t count);

/// Renders an image as assembler text: one `.org` per segment, `.word`
/// (and `.byte` for a ragged tail) lines, and a `_start:` label at the
/// entry point. Assembling the text reproduces the segments' bytes.
std::string render_image(const exten::isa::ProgramImage& image);

/// Address of the one-word nonce segment appended to each request; no
/// kernel maps or touches it, so it changes the content digest (and so
/// the cache key) without changing what the simulator does.
inline constexpr std::uint32_t kNonceAddress = 0x0001'ff00;

/// POST /v1/estimate body for `kernel` with a nonce segment. The JSON
/// text before the nonce is precomputed by make_body_prefix so building
/// a body is two appends.
std::string make_body_prefix(const KernelInstance& kernel);
std::string estimate_body(const std::string& prefix, std::uint64_t nonce);

}  // namespace perfbench
