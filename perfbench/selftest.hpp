// selftest.hpp — checks of the benchmark's own arithmetic and span file.
//
// `perfbench --self-test --workdir DIR` runs these and exits nonzero on
// the first mismatch. They cover the percentile and sample-count rule,
// self-time subtraction, nested Scope parent links, and a write/read-back
// of the span file. (The seeded corrupted read is checked end to end by
// test_perfbench.py, through a real run.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace selftest_detail {

inline int g_failures = 0;

inline void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("self-test FAILED: %s\n", what);
    ++g_failures;
  }
}

inline Span span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
                 std::uint64_t end, SpanName name = SpanName::kDriverOp) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  return s;
}

}  // namespace selftest_detail

inline int self_test(const std::string& workdir) {
  using selftest_detail::expect;
  using selftest_detail::span;

  // Percentiles: nearest rank, and a tail is resolved only with >= 10
  // samples beyond it.
  {
    Series s;
    for (int i = 1000; i >= 1; --i) s.add(static_cast<std::uint64_t>(i));
    const Quantile p50 = s.quantile(0.50), p99 = s.quantile(0.99);
    expect(p50.value == 500 && p50.n == 1000, "p50 of 1..1000 is 500");
    expect(p99.value == 990 && p99.beyond == 10 && p99.resolved(),
           "p99 of 1..1000 is 990 with 10 beyond (resolved)");
    Series t;
    for (int i = 1; i <= 999; ++i) t.add(static_cast<std::uint64_t>(i));
    const Quantile q = t.quantile(0.99);
    expect(q.value == 990 && q.beyond == 9 && !q.resolved(),
           "p99 of 1..999 has 9 beyond (unresolved)");
    Series one;
    one.add(7);
    expect(one.quantile(0.99).value == 7 && one.quantile(0.0).value == 7,
           "a single sample is every percentile");
    Series empty;
    expect(empty.quantile(0.5).n == 0, "an empty series reports n=0");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  }

  // Self time: parent [0,100) with children [10,30), [20,50) overlapping
  // and [90,120) running past its end: covered 40 + 10, self 50.
  {
    const std::vector<Span> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 30, SpanName::kKvGet),
        span(3, 1, 20, 50, SpanName::kKvGet),
        span(4, 1, 90, 120, SpanName::kKvPut),
        span(5, 2, 12, 14, SpanName::kKvScan),  // grandchild: not the root's
    };
    const std::vector<std::uint64_t> self = self_times(spans);
    expect(self[0] == 50, "root self time subtracts the union of children");
    expect(self[1] == 18, "child self time subtracts its own child");
    expect(self[3] == 30, "leaf self time is its duration");
    auto agg = aggregate(spans);
    expect(agg[SpanName::kKvGet].count == 2 &&
               agg[SpanName::kKvGet].total_ns == 50 &&
               agg[SpanName::kKvGet].self_ns == 48,
           "aggregate sums per name");
  }

  // Scope nesting: a child opened inside a parent links to it.
  {
    Tracer& tr = Tracer::instance();
    tr.take();
    tr.set_enabled(true);
    {
      Scope outer(SpanName::kDriverOp);
      { Scope inner(SpanName::kKvGet, true, 3); }
      { Scope skipped(SpanName::kKvPut, false); }
    }
    tr.set_enabled(false);
    { Scope off(SpanName::kKvPut); }
    const std::vector<Span> got = tr.take();
    expect(got.size() == 2, "two spans recorded (disabled ones skipped)");
    if (got.size() == 2) {
      expect(got[0].name == SpanName::kKvGet && got[0].items == 3 &&
                 got[0].parent == got[1].id && got[1].parent == 0,
             "inner span's parent is the outer span");
      expect(got[1].start_ns <= got[0].start_ns &&
                 got[0].end_ns <= got[1].end_ns,
             "child interval lies inside its parent");
    }
  }

  // Span file: what is written reads back identically.
  {
    std::vector<Span> spans = {span(1, 0, 5, 900),
                               span(2, 1, 10, 20, SpanName::kNetFlush)};
    spans[1].items = 64;
    spans[1].thread = 3;
    const std::string path = workdir + "/selftest_spans.tsv";
    write_spans(path, spans);
    expect(read_spans(path) == spans, "span file round-trips");
    std::remove(path.c_str());
  }

  if (selftest_detail::g_failures == 0) std::printf("self-test: OK\n");
  return selftest_detail::g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
