#include "inputs.h"

#include <cstdio>
#include <sstream>

#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads/tie_library.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

namespace wl = exten::workloads;

struct KernelKind {
  const char* name;
  unsigned size;  ///< application_suite size
  exten::model::TestProgram (*make)(unsigned, std::uint64_t);
  std::string (*tie)();  ///< nullptr for base-only kernels
};

// The ten Table II kernels with the sizes application_suite uses.
const KernelKind kKernels[] = {
    {"Ins_sort", 96, &wl::make_ins_sort, nullptr},
    {"Gcd", 160, &wl::make_gcd, nullptr},
    {"Alphablend", 400, &wl::make_alphablend, &wl::tie_blend_spec},
    {"Add4", 520, &wl::make_add4, &wl::tie_add4_spec},
    {"Bubsort", 72, &wl::make_bubsort, nullptr},
    {"DES", 320, &wl::make_des, &wl::tie_sbox_spec},
    {"Accumulate", 480, &wl::make_accumulate, &wl::tie_csa_spec},
    {"Drawline", 24, &wl::make_drawline, &wl::tie_absdiff_spec},
    {"Multi_accumulate", 320, &wl::make_multi_accumulate, &wl::tie_mac_spec},
    {"Seq_mult", 280, &wl::make_seq_mult, &wl::tie_smul_spec},
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

/// JSON string-literal body of `text` (without the surrounding quotes).
std::string json_escaped(const std::string& text) {
  exten::JsonWriter w;
  w.begin_array();
  w.element(std::string_view(text));
  w.end_array();
  const std::string s = w.str();  // ["..."]
  return s.substr(2, s.size() - 4);
}

}  // namespace

std::vector<KernelInstance> draw_kernels(std::uint64_t seed,
                                         std::size_t count) {
  // The mix is fixed and the sizes stratified, so a seed changes the
  // inputs but hardly the amount of work: instance i is kernel i % 10, and
  // the k-th of the m instances of a kernel draws its size from the k-th
  // of m equal strata of [n/2, 2n].
  constexpr std::size_t kKinds = std::size(kKernels);
  exten::Rng rng(seed);
  std::vector<KernelInstance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const KernelKind& kind = kKernels[i % kKinds];
    const std::uint64_t occurrences =
        (count - i % kKinds + kKinds - 1) / kKinds;
    const std::uint64_t stratum = i / kKinds;
    const std::uint64_t lo = kind.size / 2;
    const std::uint64_t width = 2 * kind.size - lo + 1;
    const std::uint64_t from = lo + width * stratum / occurrences;
    const std::uint64_t to = lo + width * (stratum + 1) / occurrences;
    const unsigned size = static_cast<unsigned>(
        from + rng.next_below(std::max<std::uint64_t>(to - from, 1)));
    const std::uint64_t data_seed = rng.next_u64();
    KernelInstance k;
    k.name = std::string(kind.name) + "-n" + std::to_string(size);
    k.program = kind.make(size, data_seed);
    k.asm_text = render_image(k.program.image);
    if (kind.tie != nullptr) k.tie_text = kind.tie();
    for (const exten::isa::Segment& s : k.program.image.segments()) {
      EXTEN_CHECK(s.end() < kNonceAddress || s.base > kNonceAddress + 8,
                  k.name, " overlaps the nonce segment");
    }
    out.push_back(std::move(k));
  }
  return out;
}

std::string render_image(const exten::isa::ProgramImage& image) {
  const std::uint32_t entry = image.entry_point();
  bool entry_found = false;
  std::ostringstream os;
  os << ".text\n";
  for (const exten::isa::Segment& segment : image.segments()) {
    os << ".org " << hex32(segment.base) << "\n";
    const std::vector<std::uint8_t>& bytes = segment.bytes;
    std::size_t i = 0;
    std::size_t on_line = 0;
    while (i < bytes.size()) {
      const std::uint32_t address =
          segment.base + static_cast<std::uint32_t>(i);
      if (address == entry) {
        if (on_line > 0) os << "\n";
        os << "_start:\n";
        on_line = 0;
        entry_found = true;
      }
      if (i + 4 <= bytes.size()) {
        std::uint32_t word = 0;
        for (int b = 3; b >= 0; --b) word = (word << 8) | bytes[i + b];
        os << (on_line == 0 ? ".word " : ", ") << hex32(word);
        i += 4;
      } else {
        if (on_line > 0) os << "\n";
        os << ".byte " << static_cast<unsigned>(bytes[i]);
        i += 1;
        on_line = 7;  // force a line break after a tail byte
      }
      if (++on_line >= 8) {
        os << "\n";
        on_line = 0;
      }
    }
    if (on_line > 0) os << "\n";
  }
  EXTEN_CHECK(entry_found, "entry point ", hex32(entry),
              " lies outside every segment");
  return os.str();
}

std::string make_body_prefix(const KernelInstance& kernel) {
  return "{\"name\":\"" + kernel.name + "\",\"tie\":\"" +
         json_escaped(kernel.tie_text) + "\",\"asm\":\"" +
         json_escaped(kernel.asm_text);
}

std::string estimate_body(const std::string& prefix, std::uint64_t nonce) {
  std::string body;
  body.reserve(prefix.size() + 64);
  body += prefix;
  body += ".org ";
  body += hex32(kNonceAddress);
  body += "\\n.word ";
  body += hex32(static_cast<std::uint32_t>(nonce));
  body += ", ";
  body += hex32(static_cast<std::uint32_t>(nonce >> 32));
  body += "\\n\"}";
  return body;
}

}  // namespace perfbench
