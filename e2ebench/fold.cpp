#include "fold.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "support/check.h"

namespace xcvbench {

namespace {

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int tid = 0;
  int kind = 0;
};

/// One stretch of a thread's timeline owned by its innermost span.
struct Segment {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  int label = 0;
  int cls = 0;  // kWork, kWaiting or kIdle
};

constexpr int kIdle = 0;
constexpr int kWaiting = 1;
constexpr int kWork = 2;

/// Which layer a span's self time belongs to. Names are the program's span
/// names plus the benchmark's own spans (category "bench"); an unknown name
/// becomes its own layer, so new spans show up instead of vanishing.
std::string LayerOf(const std::string& kind) {
  static const std::unordered_map<std::string, std::string> kLayers = {
      {"classify", "solver.classify"},
      {"contract", "solver.contract"},
      // Solver time outside the wave kernels: presample, model validation,
      // the pop/split loop.
      {"solve", "solver.other"},
      {"solve.cached", "cache.replay"},
      {"cache-revalidate", "cache.revalidate"},
      {"campaign-build", "campaign.build"},
      {"campaign-load", "cache.load"},
      {"report-check", "bench.check"},
      {"http-submit", "service.http"},
      {"http-poll", "service.http"},
      {"http-report", "service.http"},
  };
  const auto it = kLayers.find(kind);
  return it == kLayers.end() ? kind : it->second;
}

std::string_view StringField(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + key.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return line.substr(begin, end - begin);
}

bool NumberField(std::string_view line, std::string_view key,
                 std::uint64_t* out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* first = line.data() + at + key.size();
  return std::from_chars(first, line.data() + line.size(), *out).ec ==
         std::errc();
}

class Interner {
 public:
  int Id(const std::string& s) {
    const auto [it, added] = ids_.emplace(s, static_cast<int>(names_.size()));
    if (added) names_.push_back(s);
    return it->second;
  }
  const std::string& Name(int id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> names_;
};

}  // namespace

FoldResult FoldTrace(const std::string& trace_json, const std::string& root,
                     const std::set<std::string>& waiting) {
  FoldResult out;
  Interner kinds;
  std::vector<Span> spans;

  // The recorder renders one event per line (obs/trace.cpp); parse just the
  // fields the fold needs instead of building a DOM of ~10^6 objects.
  std::string_view text(trace_json);
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find("{\"name\":\"") == std::string_view::npos) continue;
    ++out.events;
    if (StringField(line, "\"ph\":\"") != "X") continue;
    Span s;
    std::uint64_t ts = 0, dur = 0, tid = 0;
    if (!NumberField(line, "\"ts\":", &ts) ||
        !NumberField(line, "\"dur\":", &dur) ||
        !NumberField(line, "\"tid\":", &tid))
      continue;
    std::string kind(StringField(line, "{\"name\":\""));
    if (kind == "solve" &&
        line.find("\"from_cache\":1") != std::string_view::npos)
      kind = "solve.cached";
    s.start = ts;
    s.end = ts + dur;
    s.tid = static_cast<int>(tid);
    s.kind = kinds.Id(kind);
    spans.push_back(s);
    out.busy_s[kind] += static_cast<double>(dur) * 1e-6;
    ++out.count[kind];
  }

  const int root_kind = kinds.Id(root);
  const Span* root_span = nullptr;
  for (const Span& s : spans) {
    if (s.kind != root_kind) continue;
    XCV_CHECK_MSG(root_span == nullptr, "trace holds two '" << root
                                                             << "' spans");
    root_span = &s;
  }
  XCV_CHECK_MSG(root_span != nullptr, "trace has no '" << root << "' span");
  const Span root_extent = *root_span;
  out.wall_s = static_cast<double>(root_extent.end - root_extent.start) * 1e-6;

  // Order: by thread, then outer spans before the spans they contain.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });

  // Solves are the units of work inside a campaign's `job` span. A job's
  // self time before its first solve is engine construction, after its
  // last solve it is result collection and the cache save; in between it is
  // the engine's own bookkeeping (and pool gaps when the job waits).
  const int solve_kind = kinds.Id("solve");
  const int cached_kind = kinds.Id("solve.cached");
  const int job_kind = kinds.Id("job");
  std::vector<Span> solves;
  for (const Span& s : spans)
    if (s.kind == solve_kind || s.kind == cached_kind) solves.push_back(s);
  std::vector<Span> solves_by_start = solves;
  std::sort(solves_by_start.begin(), solves_by_start.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  // solves is sorted by (tid, start) already.
  auto child_extent = [&](const Span& job, std::uint64_t* first,
                          std::uint64_t* last) {
    bool any = false;
    auto scan = [&](const std::vector<Span>& list, bool same_tid) {
      auto it = std::lower_bound(
          list.begin(), list.end(), job, [&](const Span& s, const Span& j) {
            if (same_tid && s.tid != j.tid) return s.tid < j.tid;
            return s.start < j.start;
          });
      for (; it != list.end() && it->start <= job.end; ++it) {
        if (same_tid && it->tid != job.tid) break;
        *first = any ? std::min(*first, it->start) : it->start;
        *last = any ? std::max(*last, std::min(it->end, job.end))
                    : std::min(it->end, job.end);
        any = true;
      }
    };
    scan(solves, /*same_tid=*/true);
    if (!any) scan(solves_by_start, /*same_tid=*/false);
    return any;
  };

  Interner labels;
  const int unattributed = labels.Id("unattributed");
  const int head = labels.Id("campaign.run_head");
  const int body = labels.Id("verifier.engine");
  const int tail = labels.Id("campaign.run_tail");
  std::vector<int> label_of(kinds.size());
  std::vector<int> class_of(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string& name = kinds.Name(static_cast<int>(k));
    label_of[k] = static_cast<int>(k) == root_kind ? unattributed
                                                   : labels.Id(LayerOf(name));
    class_of[k] = static_cast<int>(k) == root_kind ? kIdle
                  : waiting.count(name) != 0       ? kWaiting
                                                   : kWork;
  }

  std::vector<Segment> segments;
  auto emit = [&](const Span& s, std::uint64_t t0, std::uint64_t t1,
                  std::uint64_t job_first, std::uint64_t job_last,
                  bool job_has_children) {
    if (t1 <= t0) return;
    const int cls = class_of[s.kind];
    if (s.kind != job_kind) {
      segments.push_back({t0, t1, label_of[s.kind], cls});
      return;
    }
    if (!job_has_children) {
      segments.push_back({t0, t1, body, cls});
      return;
    }
    // Split at the first solve's start and the last solve's end.
    const std::uint64_t cuts[4] = {t0, std::clamp(job_first, t0, t1),
                                   std::clamp(job_last, t0, t1), t1};
    const int parts[3] = {head, body, tail};
    for (int i = 0; i < 3; ++i)
      if (cuts[i + 1] > cuts[i])
        segments.push_back({cuts[i], cuts[i + 1], parts[i], cls});
  };

  // Per thread: a stack of open spans; every stretch goes to the top.
  struct Open {
    Span span;
    std::uint64_t first = 0, last = 0;
    bool children = false;
  };
  std::vector<Open> stack;
  std::uint64_t cursor = 0;
  auto close_until = [&](std::uint64_t t) {
    while (!stack.empty() && stack.back().span.end <= t) {
      const Open& top = stack.back();
      emit(top.span, cursor, top.span.end, top.first, top.last, top.children);
      cursor = std::max(cursor, top.span.end);
      stack.pop_back();
    }
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) {
      close_until(~std::uint64_t{0});
      stack.clear();
    }
    close_until(s.start);
    if (!stack.empty()) {
      const Open& top = stack.back();
      emit(top.span, cursor, s.start, top.first, top.last, top.children);
      s.end = std::min(s.end, top.span.end);  // clock jitter: stay nested
    }
    cursor = s.start;
    Open open{s};
    if (s.kind == job_kind)
      open.children = child_extent(s, &open.first, &open.last);
    stack.push_back(open);
  }
  close_until(~std::uint64_t{0});

  // Sweep all threads' segments over the root's extent.
  struct Boundary {
    std::uint64_t t;
    bool start;
    std::size_t seg;
  };
  std::vector<Boundary> bounds;
  bounds.reserve(2 * segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    bounds.push_back({segments[i].t0, true, i});
    bounds.push_back({segments[i].t1, false, i});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.t < b.t; });

  std::vector<double> acc(labels.size(), 0.0);
  std::vector<std::size_t> active[3];
  auto distribute = [&](std::uint64_t a, std::uint64_t b) {
    a = std::max(a, root_extent.start);
    b = std::min(b, root_extent.end);
    if (b <= a) return;
    const double dt = static_cast<double>(b - a) * 1e-6;
    for (int cls = kWork; cls >= kIdle; --cls) {
      if (active[cls].empty()) continue;
      const double share = dt / static_cast<double>(active[cls].size());
      for (std::size_t seg : active[cls]) acc[segments[seg].label] += share;
      return;
    }
    acc[unattributed] += dt;
  };
  std::uint64_t prev = root_extent.start;
  for (std::size_t i = 0; i < bounds.size();) {
    const std::uint64_t t = bounds[i].t;
    distribute(prev, t);
    for (; i < bounds.size() && bounds[i].t == t; ++i) {
      const Segment& seg = segments[bounds[i].seg];
      std::vector<std::size_t>& set = active[seg.cls];
      if (bounds[i].start) {
        set.push_back(bounds[i].seg);
      } else {
        set.erase(std::find(set.begin(), set.end(), bounds[i].seg));
      }
    }
    prev = std::max(prev, t);
  }
  distribute(prev, root_extent.end);

  for (std::size_t l = 0; l < labels.size(); ++l)
    if (acc[l] > 0.0 || static_cast<int>(l) == unattributed)
      out.layers[labels.Name(static_cast<int>(l))] = acc[l];
  return out;
}

bool FoldBalanced(const FoldResult& fold) {
  double sum = 0.0;
  for (const auto& [layer, seconds] : fold.layers) sum += seconds;
  return std::abs(sum - fold.wall_s) <= 1e-6 * std::max(1.0, fold.wall_s);
}

}  // namespace xcvbench
