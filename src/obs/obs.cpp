#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace gppm::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// LogHistogram.

namespace {

// A positive double's bits shifted right by (52 - kSubBits) are
// (biased exponent << kSubBits) | top mantissa bits: a key that grows with
// the value, eight steps per octave.  kFirstKey is the key of 2^kMinExp.
constexpr int kKeyShift = 52 - LogHistogram::kSubBits;
constexpr std::uint64_t kFirstKey =
    static_cast<std::uint64_t>(1023 + LogHistogram::kMinExp)
    << LogHistogram::kSubBits;

double bin_lower(std::size_t bin) {
  return std::bit_cast<double>((kFirstKey + bin - 1) << kKeyShift);
}

}  // namespace

std::size_t LogHistogram::bin_index(double v) {
  if (!(v >= bin_lower(1))) return 0;
  if (v >= bin_lower(kBins - 1)) return kBins - 1;
  return static_cast<std::size_t>(
      (std::bit_cast<std::uint64_t>(v) >> kKeyShift) - kFirstKey + 1);
}

double LogHistogram::bin_upper(std::size_t bin) {
  if (bin + 1 >= kBins) return std::numeric_limits<double>::infinity();
  return bin_lower(bin + 1);
}

void LogHistogram::record(double v) {
  bins_[bin_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (v > 0.0) sum_.fetch_add(v, std::memory_order_relaxed);
}

double LogHistogram::quantile(double q) const {
  // Rank against the bins as read, not count_: a record racing this scan
  // may have bumped one and not the other.
  std::array<std::uint64_t, kBins> counts;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    counts[i] = bins_[i].load(std::memory_order_relaxed);
    n += counts[i];
  }
  if (n == 0) return std::numeric_limits<double>::infinity();
  // Integer rank in [1, n]: q == 0 (or a q rounding below one sample) must
  // still land on a non-empty bin, never the empty underflow edge.
  std::uint64_t rank = 1;
  if (q >= 1.0) {
    rank = n;
  } else if (q > 0.0) {
    rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1,
        n);
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    seen += counts[i];
    if (seen >= rank) return bin_upper(i);
  }
  return bin_upper(kBins - 1);  // unreachable: seen reaches n
}

void LogHistogram::reset() {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry.

struct Registry::Impl {
  mutable std::mutex mu;
  // Node-based maps: instrument addresses stay stable across registrations,
  // so call sites can cache references forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() {
  // Leaked on purpose (see header): pool workers may record at teardown.
  static Registry* r = new Registry();
  return *r;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[name];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot.reset(new Histogram());
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  MetricsSnapshot s;
  s.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) {
    s.gauges.push_back({name, g->value(), g->max()});
  }
  s.histograms.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms) {
    HistogramRow row{name, h->count(), h->sum(), {}};
    for (std::size_t b = 0; b < Histogram::kBins; ++b) {
      if (const std::uint64_t n = h->bin_count(b)) {
        row.bins.emplace_back(Histogram::bin_upper(b), n);
      }
    }
    s.histograms.push_back(std::move(row));
  }
  return s;
}

void Registry::reset_values() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

bool MetricsSnapshot::has_activity(const std::string& prefix) const {
  const auto matches = [&](const std::string& name) {
    return name.size() >= prefix.size() &&
           name.compare(0, prefix.size(), prefix) == 0;
  };
  for (const CounterRow& c : counters) {
    if (matches(c.name) && c.value > 0) return true;
  }
  for (const GaugeRow& g : gauges) {
    if (matches(g.name) && g.max > 0) return true;
  }
  for (const HistogramRow& h : histograms) {
    if (matches(h.name) && h.count > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Spans.

namespace {

struct SpanBuffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  std::size_t capacity = 1 << 16;
  std::atomic<std::uint64_t> dropped{0};
};

SpanBuffer& span_buffer() {
  static SpanBuffer* b = new SpanBuffer();  // leaked, like the registry
  return *b;
}

std::uint64_t trace_epoch_ns() {
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return epoch;
}

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local std::uint32_t tl_span_depth = 0;

}  // namespace

std::uint64_t trace_now_ns() {
  // Resolve the epoch before reading the clock: the first-ever call
  // initializes it, and reading `now` first would put it before the epoch
  // (a negative difference wrapped to ~2^64).
  const std::uint64_t epoch = trace_epoch_ns();
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch;
}

ObsSpan::ObsSpan(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  depth_ = tl_span_depth++;
  start_ns_ = trace_now_ns();
}

ObsSpan::~ObsSpan() {
  if (!active_) return;
  --tl_span_depth;
  SpanRecord rec;
  rec.name = name_;
  rec.tid = this_thread_index();
  rec.depth = depth_;
  rec.start_ns = start_ns_;
  rec.duration_ns = trace_now_ns() - start_ns_;
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.spans.size() >= buf.capacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.spans.push_back(rec);
}

std::vector<SpanRecord> span_snapshot() {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  return buf.spans;
}

std::uint64_t spans_dropped() {
  return span_buffer().dropped.load(std::memory_order_relaxed);
}

void clear_spans() {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.clear();
  buf.dropped.store(0, std::memory_order_relaxed);
}

void set_span_capacity(std::size_t cap) {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.capacity = cap;
}

}  // namespace gppm::obs
