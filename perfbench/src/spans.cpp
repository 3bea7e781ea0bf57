#include "spans.h"

#include <algorithm>
#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

namespace {

const char* obs_layer(const exten::obs::Span& span) {
  using exten::obs::Category;
  switch (span.category) {
    case Category::kServer: return "net";
    case Category::kService:
      return std::string_view(span.name) == "evaluate" ? "model" : "service";
    case Category::kEngine: return "sim";
    case Category::kTie: return "tie";
    case Category::kTool: return "obs";
  }
  return "obs";
}

}  // namespace

std::uint64_t SpanLog::open(std::string name, std::string layer,
                            std::uint64_t parent, std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.request = request;
  span.start_ns = exten::obs::Tracer::now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  const std::uint64_t now = exten::obs::Tracer::now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  EXTEN_CHECK(id >= 1 && id <= spans_.size(), "close of unknown span ", id);
  spans_[id - 1].end_ns = now;
}

std::uint64_t SpanLog::record(std::string name, std::string layer,
                              std::uint64_t start_ns, std::uint64_t end_ns,
                              std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  const std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::fold_obs(const std::vector<exten::obs::Span>& spans) {
  // Group by request id (thread for id 0), then nest by interval: sorted
  // by (start asc, end desc), a span's parent is the innermost open span
  // that still covers it.
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const exten::obs::Span& s = spans[i];
    groups[{s.id, s.id == 0 ? s.thread : 0u}].push_back(i);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, members] : groups) {
    std::sort(members.begin(), members.end(),
              [&](std::size_t a, std::size_t b) {
                const auto& sa = spans[a];
                const auto& sb = spans[b];
                if (sa.start_ns != sb.start_ns) {
                  return sa.start_ns < sb.start_ns;
                }
                if (sa.end_ns() != sb.end_ns()) {
                  return sa.end_ns() > sb.end_ns();
                }
                return sa.depth < sb.depth;
              });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;  // id, end
    for (std::size_t index : members) {
      const exten::obs::Span& s = spans[index];
      while (!stack.empty() && stack.back().second <= s.start_ns) {
        stack.pop_back();
      }
      Span span;
      span.name = s.name;
      span.layer = obs_layer(s);
      span.request = s.id;
      span.start_ns = s.start_ns;
      span.end_ns = s.end_ns();
      span.from_obs = true;
      span.id = spans_.size() + 1;
      if (!stack.empty() && stack.back().second >= span.end_ns) {
        span.parent = stack.back().first;
      }
      stack.emplace_back(span.id, span.end_ns);
      spans_.push_back(std::move(span));
    }
  }
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  exten::JsonWriter w;
  w.begin_object();
  w.array_field("spans");
  for (const Span& s : spans) {
    w.element_object();
    w.field("id", s.id);
    w.field("parent", s.parent);
    w.field("request", s.request);
    w.field("name", std::string_view(s.name));
    w.field("layer", std::string_view(s.layer));
    w.field("start_ns", s.start_ns);
    w.field("end_ns", s.end_ns);
    w.field("obs", s.from_obs);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  EXTEN_CHECK(out.good(), "cannot write trace '", path, "'");
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t parent = spans[i].parent;
    if (parent >= 1 && parent <= spans.size()) {
      children[parent - 1].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[i] = static_cast<double>(dur - std::min(dur, union_ns)) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
