#pragma once

// The benchmark's own span recorder for the traced run. Spans carry a
// name, the layer (module) their self time is charged to, start and end
// on the obs::Tracer timebase, a parent and a request id. They are kept in
// memory and written as JSON when the run ends.
//
// Spans the program emits through the existing obs tracer can be folded
// in; their parents are recovered by interval nesting within one request
// id (or one thread when the id is 0).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  std::uint64_t id = 0;      ///< 1-based index in the log
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool from_obs = false;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Thread-safe append-only span log.
class SpanLog {
 public:
  /// Opens a span starting now; returns its id.
  std::uint64_t open(std::string name, std::string layer,
                     std::uint64_t parent = 0, std::uint64_t request = 0);
  /// Ends span `id` now.
  void close(std::uint64_t id);
  /// Appends a root span whose start and end (obs::Tracer timebase) were
  /// taken elsewhere; returns its id.
  std::uint64_t record(std::string name, std::string layer,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint64_t request = 0);

  /// Appends spans recorded by the obs tracer. Each gets the layer of its
  /// category (evaluate is charged to model); spans with no obs parent
  /// keep parent 0.
  void fold_obs(const std::vector<exten::obs::Span>& spans);

  std::vector<Span> snapshot() const;

  /// Writes {"spans": [...]} to `path`; throws exten::Error on IO failure.
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. A null log
/// records nothing, so untraced code paths stay branch-free at call sites.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, const char* layer,
        std::uint64_t parent = 0, std::uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->open(name, layer, parent, request) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// Self time of every span: its duration minus the part of it covered by
/// its children. Indexed like `spans` (span id - 1).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Sum of self time per layer over the spans for which `keep` is true.
template <typename Keep>
std::map<std::string, double> self_by_layer(const std::vector<Span>& spans,
                                            Keep keep) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (keep(spans[i])) out[spans[i].layer] += self[i];
  }
  return out;
}

}  // namespace perfbench
