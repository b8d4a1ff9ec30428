// trace.hpp — in-memory span recorder for the benchmark's traced pass.
//
// A span covers one call the benchmark makes into a layer (a store call,
// a client round, a checkpoint pre→post). Each span holds its name, the
// recording thread, start and end, and its parent: the span that was
// open on the same thread when it began. Spans stay in per-thread
// buffers until the run ends, then go to a tab-separated file and into
// aggregate() — which computes per-name totals and self time (duration
// minus the part of it that child spans cover).
//
// Tracing is off unless set_enabled(true) was called while no recording
// thread runs; with tracing off a Scope costs one relaxed load.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Span names: one per layer boundary the benchmark times.
enum class SpanName : std::uint16_t {
  kDriverOp,      ///< one generated op (or call) incl. key pick + verify
  kKvGet,
  kKvPut,
  kKvMultiGet,
  kKvMultiPut,
  kKvRemove,
  kKvMultiRemove,
  kKvScan,
  kKvCheckpoint,  ///< Store checkpoint hooks, pre → post
  kNetRound,      ///< client: first burst flushed → last reply of the round
  kNetFlush,      ///< client: writing one burst to the socket
  kCount,
};

inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {"driver.op",     "kv.get",          "kv.put",
                  "kv.multi_get",  "kv.multi_put",    "kv.remove",
                  "kv.multi_remove", "kv.scan",       "kv.checkpoint",
                  "net.round",     "net.flush"};

inline std::string_view to_string(SpanName n) {
  return kSpanNames[static_cast<std::size_t>(n)];
}

inline SpanName span_name_from(std::string_view s) {
  for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
    if (kSpanNames[i] == s) return static_cast<SpanName>(i);
  }
  throw std::runtime_error("perfbench: unknown span name '" +
                           std::string(s) + "'");
}

struct Span {
  std::uint64_t id = 0;      ///< unique per run; 0 is "no span"
  std::uint64_t parent = 0;  ///< enclosing span on the same thread, or 0
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t items = 0;   ///< keys (or scan entries) the call carried
  std::uint16_t thread = 0;
  SpanName name = SpanName::kDriverOp;

  bool operator==(const Span&) const = default;
};

/// Nanoseconds on the steady clock (the one every span and sample uses).
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Switch recording on/off; only while no recording thread runs.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  struct ThreadBuf {
    std::uint16_t thread = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t open = 0;  ///< innermost open span id on this thread
    std::vector<Span> spans;
  };

  ThreadBuf& local() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      auto fresh = std::make_unique<ThreadBuf>();
      std::lock_guard<std::mutex> lk(mu_);
      fresh->thread = static_cast<std::uint16_t>(bufs_.size());
      fresh->spans.reserve(1 << 16);
      buf = fresh.get();
      bufs_.push_back(std::move(fresh));
    }
    return *buf;
  }

  /// Record a root span whose start and end were taken by the caller
  /// (for intervals that open and close in different callbacks).
  void record(SpanName name, std::uint64_t start_ns, std::uint64_t end_ns) {
    if (!enabled()) return;
    ThreadBuf& b = local();
    Span s;
    s.id = (static_cast<std::uint64_t>(b.thread) << 40) | b.next_seq++;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.thread = b.thread;
    s.name = name;
    b.spans.push_back(s);
  }

  /// Every recorded span, then clear the buffers (quiescent callers only).
  std::vector<Span> take() {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& b : bufs_) {
      out.insert(out.end(), b->spans.begin(), b->spans.end());
      b->spans.clear();
    }
    return out;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// RAII span: records [construction, destruction) when `on` and tracing
/// is enabled. Nested scopes on one thread become parent and child.
class Scope {
 public:
  explicit Scope(SpanName name, bool on = true, std::uint32_t items = 0) {
    if (!on || !Tracer::instance().enabled()) return;
    buf_ = &Tracer::instance().local();
    span_.name = name;
    span_.items = items;
    span_.thread = buf_->thread;
    span_.id = (static_cast<std::uint64_t>(buf_->thread) << 40) |
               buf_->next_seq++;
    span_.parent = buf_->open;
    buf_->open = span_.id;
    span_.start_ns = now_ns();
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    span_.end_ns = now_ns();
    buf_->open = span_.parent;
    buf_->spans.push_back(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_items(std::uint32_t n) noexcept { span_.items = n; }

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  Span span_;
};

// --- the span file -----------------------------------------------------------

inline constexpr std::string_view kSpanFileHeader =
    "# perfbench spans v1: name thread id parent start_ns end_ns items";

inline void write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("perfbench: cannot write " + path);
  f << kSpanFileHeader << '\n';
  for (const Span& s : spans) {
    f << to_string(s.name) << '\t' << s.thread << '\t' << s.id << '\t'
      << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
      << s.items << '\n';
  }
  if (!f) throw std::runtime_error("perfbench: short write to " + path);
}

inline std::vector<Span> read_spans(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("perfbench: cannot read " + path);
  std::string line;
  if (!std::getline(f, line) || line != kSpanFileHeader) {
    throw std::runtime_error("perfbench: " + path + " is not a span file");
  }
  std::vector<Span> out;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string name;
    Span s;
    if (!(in >> name >> s.thread >> s.id >> s.parent >> s.start_ns >>
          s.end_ns >> s.items)) {
      throw std::runtime_error("perfbench: malformed span line: " + line);
    }
    s.name = span_name_from(name);
    out.push_back(s);
  }
  return out;
}

// --- aggregation -------------------------------------------------------------

/// Per-name totals over a span set.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< sum of durations
  std::uint64_t self_ns = 0;   ///< sum of durations minus child coverage
  std::uint64_t items = 0;
  std::vector<std::uint64_t> durations;  ///< for percentiles
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Returned in `spans` order.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::unordered_map<std::size_t, std::vector<std::pair<std::uint64_t,
                                                        std::uint64_t>>>
      kids;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;  // parent not recorded: treat as root
    kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const std::uint64_t dur = p.end_ns - p.start_ns;
    const auto it = kids.find(i);
    if (it == kids.end()) {
      self[i] = dur;
      continue;
    }
    auto& iv = it->second;
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (lo >= hi) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = dur - covered;
  }
  return self;
}

inline std::map<SpanName, SpanTotals> aggregate(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<SpanName, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self[i];
    t.items += s.items;
    t.durations.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

}  // namespace perfbench
