#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "obs/export.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for the disabled-mode zero-cost check.  The overrides
// are process-wide, so they forward to malloc/free and only bump an atomic —
// cheap enough for the rest of the binary not to notice.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gppm::obs {
namespace {

/// Restores the disabled default however a test exits, so suites sharing the
/// process never observe each other's enable flag.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsRegistry, DisabledInstrumentsDoNotMove) {
  set_enabled(false);
  Counter& c = Registry::instance().counter("test.disabled_counter");
  Gauge& g = Registry::instance().gauge("test.disabled_gauge");
  Histogram& h = Registry::instance().histogram("test.disabled_hist");
  const std::uint64_t c0 = c.value();
  c.add(5);
  g.set(42);
  g.add(7);
  h.record(3.0);
  EXPECT_EQ(c.value(), c0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsRegistry, CounterGaugeHistogramRecordWhenEnabled) {
  EnabledGuard on(true);
  Counter& c = Registry::instance().counter("test.counter");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge& g = Registry::instance().gauge("test.gauge");
  g.set(5);
  g.add(3);   // level 8, max 8
  g.add(-6);  // level 2, max stays 8
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 8);

  Histogram& h = Registry::instance().histogram("test.hist");
  h.record(0.5);
  h.record(1.0);
  h.record(7.0);
  h.record(99.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 107.5, 1e-6);
  // Four values an octave or more apart land in four bins, one each.
  for (double v : {0.5, 1.0, 7.0, 99.0}) {
    EXPECT_EQ(h.bin_count(Histogram::bin_index(v)), 1u) << v;
  }
  EXPECT_EQ(h.quantile(0.5), Histogram::bin_upper(Histogram::bin_index(1.0)));
}

TEST(ObsRegistry, FindOrCreateIsStable) {
  Counter& a = Registry::instance().counter("test.same_name");
  Counter& b = Registry::instance().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::instance().histogram("test.same_hist");
  Histogram& h2 = Registry::instance().histogram("test.same_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, SnapshotSortsByNameAndReportsActivity) {
  EnabledGuard on(true);
  Registry::instance().counter("test.zz_last").add();
  Registry::instance().counter("test.aa_first").add();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_TRUE(snap.has_activity("test.zz_last"));
  EXPECT_FALSE(snap.has_activity("no.such.prefix"));
}

TEST(ObsRegistry, ConcurrentRecordingUnderParallelForIsExact) {
  EnabledGuard on(true);
  Counter& c = Registry::instance().counter("test.par_counter");
  Gauge& g = Registry::instance().gauge("test.par_gauge");
  Histogram& h = Registry::instance().histogram("test.par_hist");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();
  const double s0 = h.sum();

  constexpr std::size_t kIters = 20000;
  parallel_for(kIters, [&](std::size_t i) {
    c.add();
    g.add(1);
    h.record(static_cast<double>(i % 200));
    g.add(-1);
  });

  EXPECT_EQ(c.value() - c0, kIters);
  EXPECT_EQ(h.count() - h0, kIters);
  // Integer values sum exactly in a double whatever the add order.
  EXPECT_EQ(h.sum() - s0, 100.0 * (199.0 * 200.0 / 2.0));
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.max(), 1);
}

// ---------------------------------------------------------------------------
// The shared log-binned geometry and quantile rule.

TEST(ObsHistogram, EachRecordedValueLiesInsideItsBin) {
  for (double v = 1e-7; v <= 1e3; v *= 1.01) {
    const std::size_t b = LogHistogram::bin_index(v);
    ASSERT_GT(b, 0u) << v;
    ASSERT_LT(b, LogHistogram::kBins - 1) << v;
    EXPECT_LE(LogHistogram::bin_upper(b - 1), v);
    EXPECT_LT(v, LogHistogram::bin_upper(b));
    // No bin is wider than an eighth of an octave's first step (12.5 %).
    EXPECT_LE(LogHistogram::bin_upper(b) / LogHistogram::bin_upper(b - 1),
              1.125);
  }
  // A bin's lower edge belongs to it; its upper edge to the next bin.
  const double edge = LogHistogram::bin_upper(100);
  EXPECT_EQ(LogHistogram::bin_index(edge), 101u);
}

TEST(ObsHistogram, BinIndexIsMonotoneFrom1e7To1e3) {
  std::size_t prev = LogHistogram::bin_index(1e-7);
  for (double v = 1e-7; v <= 1e3; v *= 1.001) {
    const std::size_t b = LogHistogram::bin_index(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
  }
  // 0.1 us .. 1000 s is in range whether recorded in seconds or in
  // microseconds.
  for (double v : {1e-7, 1e3, 0.1, 1e9}) {
    EXPECT_GT(LogHistogram::bin_index(v), 0u) << v;
    EXPECT_LT(LogHistogram::bin_index(v), LogHistogram::kBins - 1) << v;
  }
}

TEST(ObsHistogram, OutOfRangeValuesLandInUnderflowAndOverflow) {
  for (double v : {0.0, -1.0, 1e-12, std::nan("")}) {
    EXPECT_EQ(LogHistogram::bin_index(v), 0u) << v;
  }
  for (double v : {1e13, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(LogHistogram::bin_index(v), LogHistogram::kBins - 1) << v;
  }
  EXPECT_TRUE(std::isinf(LogHistogram::bin_upper(LogHistogram::kBins - 1)));
}

TEST(ObsHistogram, PercentilesFromKnownDistribution) {
  // 90 samples at 10 us, 10 at 10 ms: p50 is 10 us's bin and p99 10 ms's,
  // each answered as the bin's upper edge (at most 12.5 % above).
  LogHistogram h;
  for (int i = 0; i < 90; ++i) h.record(10e-6);
  for (int i = 0; i < 10; ++i) h.record(10e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.quantile(0.50), 10e-6);
  EXPECT_LE(h.quantile(0.50), 10e-6 * 1.125);
  EXPECT_EQ(h.quantile(0.85), h.quantile(0.50));  // rank 85 is still 10 us
  EXPECT_GT(h.quantile(0.91), 10e-3);
  EXPECT_GT(h.quantile(0.99), 10e-3);
  EXPECT_LE(h.quantile(0.99), 10e-3 * 1.125);
  EXPECT_NEAR(h.sum(), 90 * 10e-6 + 10 * 10e-3, 1e-12);
}

TEST(ObsHistogram, ConcurrentRecordingIsExact) {
  LogHistogram h;
  constexpr std::size_t kIters = 20000;
  parallel_for(kIters, [&](std::size_t i) {
    h.record(static_cast<double>(i % 100 + 1));
  });
  EXPECT_EQ(h.count(), kIters);
  std::uint64_t binned = 0;
  for (std::size_t b = 0; b < LogHistogram::kBins; ++b) {
    binned += h.bin_count(b);
  }
  EXPECT_EQ(binned, kIters);
  EXPECT_EQ(h.sum(), 200.0 * (100.0 * 101.0 / 2.0));
  EXPECT_EQ(h.bin_count(LogHistogram::bin_index(1.0)), kIters / 100);
}

TEST(ObsHistogram, SumDoesNotWrap) {
  // Regression: the sum was kept in uint64 nano-units, so it wrapped past
  // 1.8e10 and a single 1e12 record overflowed the cast outright.
  EnabledGuard on(true);
  Histogram& h = Registry::instance().histogram("test.big_sum");
  for (int i = 0; i < 20; ++i) h.record(1e9);
  EXPECT_EQ(h.sum(), 2e10);
  h.record(1e12);
  EXPECT_EQ(h.sum(), 1.02e12);
  EXPECT_EQ(h.count(), 21u);
}

TEST(ObsSpans, NestingDepthsOnOneThread) {
  EnabledGuard on(true);
  clear_spans();
  {
    ObsSpan outer("test.outer");
    {
      ObsSpan mid("test.mid");
      { ObsSpan inner("test.inner"); }
    }
  }
  const std::vector<SpanRecord> spans = span_snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: innermost ends first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[1].name, "test.mid");
  EXPECT_STREQ(spans[2].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[0].tid, spans[2].tid);
  // Containment: the outer span covers the inner ones.
  EXPECT_LE(spans[2].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[2].start_ns + spans[2].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
}

TEST(ObsSpans, PerThreadDepthAcrossPoolWorkers) {
  EnabledGuard on(true);
  clear_spans();
  parallel_for(64, [&](std::size_t) {
    ObsSpan outer("test.pool_outer");
    ObsSpan inner("test.pool_inner");
  });
  const std::vector<SpanRecord> spans = span_snapshot();
  std::size_t outers = 0;
  std::size_t inners = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    // The pool's own instrumentation ("parallel.task") wraps each task, so
    // user spans inside a pool task sit one or two levels deep depending on
    // whether this iteration ran inline on the caller or on a worker.  The
    // invariant is relative: inner is exactly one deeper than outer.
    if (name == "test.pool_outer") {
      ++outers;
    } else if (name == "test.pool_inner") {
      ++inners;
      EXPECT_GE(s.depth, 1u);
    }
  }
  EXPECT_EQ(outers, 64u);
  EXPECT_EQ(inners, 64u);
  // Per-thread nesting: within one thread, spans sorted by start time must
  // be properly nested — each later-starting, earlier-ending span sits
  // strictly inside or strictly after any earlier span.
  for (const SpanRecord& a : spans) {
    for (const SpanRecord& b : spans) {
      if (a.tid != b.tid) continue;
      const std::uint64_t a_end = a.start_ns + a.duration_ns;
      const std::uint64_t b_end = b.start_ns + b.duration_ns;
      if (b.start_ns >= a.start_ns && b_end <= a_end) continue;  // nested
      if (b.start_ns >= a_end || a.start_ns >= b_end) continue;  // disjoint
      if (a.start_ns >= b.start_ns && a_end <= b_end) continue;  // nested
      ADD_FAILURE() << a.name << " and " << b.name
                    << " overlap without nesting on tid " << a.tid;
    }
  }
}

TEST(ObsSpans, BufferIsBoundedAndCountsDrops) {
  EnabledGuard on(true);
  clear_spans();
  set_span_capacity(16);
  for (int i = 0; i < 64; ++i) {
    ObsSpan span("test.bounded");
  }
  EXPECT_LE(span_snapshot().size(), 16u);
  EXPECT_EQ(spans_dropped(), 48u);
  set_span_capacity(1 << 16);  // restore the default for later suites
  clear_spans();
}

TEST(ObsDisabled, HotPathDoesNotAllocate) {
  set_enabled(false);
  // Registration is the cold path and may allocate; do it first.
  Counter& c = Registry::instance().counter("test.noalloc_counter");
  Gauge& g = Registry::instance().gauge("test.noalloc_gauge");
  Histogram& h = Registry::instance().histogram("test.noalloc_hist");

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    c.add();
    g.set(i);
    g.add(1);
    h.record(static_cast<double>(i));
    ObsSpan span("test.noalloc_span");
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(ObsExport, MetricsCsvListsEveryInstrumentKind) {
  EnabledGuard on(true);
  Registry::instance().counter("test.csv_counter").add(3);
  Registry::instance().gauge("test.csv_gauge").set(7);
  Registry::instance().histogram("test.csv_hist").record(5.0);

  std::ostringstream out;
  write_metrics_csv(Registry::instance().snapshot(), out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,test.csv_counter,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,test.csv_gauge,value,7"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.csv_hist,count,"), std::string::npos);
  // One row per non-empty bin, labelled by its upper edge: 5 is the lower
  // edge of [5, 5.5).  Empty bins (the overflow bin here) print nothing.
  EXPECT_NE(csv.find("histogram,test.csv_hist,le_5.5,1"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,test.csv_hist,le_inf"), std::string::npos);
}

TEST(ObsExport, MetricsTableHasOneRowPerInstrument) {
  EnabledGuard on(true);
  Registry::instance().counter("test.table_counter").add();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const AsciiTable table = metrics_table(snap);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("test.table_counter"), std::string::npos);
}

}  // namespace
}  // namespace gppm::obs
