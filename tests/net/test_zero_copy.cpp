// The zero-copy decode path: FrameDecoder::next_view() fuzzed over
// arbitrary stream chunkings (injected short reads), view-lifetime
// aliasing rules across buffer compaction, the response arena, and the
// steady-state no-allocation contract of the framing hot path.
//
// This binary overrides global operator new to COUNT allocations, so the
// no-allocation test can assert an exact zero over the warmed reply path.
// The override must live in this test binary only — never in a library.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "dvfs/combos.hpp"
#include "gpusim/device_spec.hpp"
#include "net/arena.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/wire.hpp"
#include "profiler/counters.hpp"
#include "serve/server.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gppm::net;
using gppm::Rng;
namespace serve = gppm::serve;

struct CorpusFrame {
  FrameType type;
  std::vector<std::uint8_t> payload;
  std::uint64_t deadline;
};

std::vector<CorpusFrame> random_corpus(Rng& rng, std::size_t count,
                                       std::size_t max_payload) {
  // The decoder validates framing, not payload semantics, so random bytes
  // under any known frame type exercise it fully.
  const FrameType kinds[] = {FrameType::Ping, FrameType::PredictRequest,
                             FrameType::PredictResponse, FrameType::InfoRequest,
                             FrameType::HealthRequest, FrameType::ErrorReply};
  std::vector<CorpusFrame> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CorpusFrame f;
    f.type = kinds[rng.uniform_index(std::size(kinds))];
    f.payload.resize(rng.uniform_index(max_payload + 1));
    for (std::uint8_t& b : f.payload) {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    }
    f.deadline = rng.next_u64() & 0xffffffffull;
    corpus.push_back(std::move(f));
  }
  return corpus;
}

std::vector<std::uint8_t> concat_stream(const std::vector<CorpusFrame>& c) {
  std::vector<std::uint8_t> stream;
  for (const CorpusFrame& f : c) {
    encode_frame_into(stream, f.type, f.payload, f.deadline);
  }
  return stream;
}

TEST(ZeroCopyDecode, FuzzedChunkingReassemblesEveryFrame) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const std::vector<CorpusFrame> corpus =
        random_corpus(rng, 12, /*max_payload=*/600);
    const std::vector<std::uint8_t> stream = concat_stream(corpus);

    FrameDecoder decoder;
    std::size_t next_expected = 0;
    std::size_t fed = 0;
    while (fed < stream.size()) {
      // Short reads of every size down to a single byte, so frame headers
      // and payloads split at arbitrary offsets.
      const std::size_t chunk =
          1 + rng.uniform_index(std::min<std::size_t>(97, stream.size() - fed));
      decoder.feed(stream.data() + fed, chunk);
      fed += chunk;
      // Views must be consumed (here: verified) before the next feed —
      // exactly the server reader's discipline.
      while (std::optional<FrameView> view = decoder.next_view()) {
        ASSERT_LT(next_expected, corpus.size());
        const CorpusFrame& want = corpus[next_expected++];
        EXPECT_EQ(view->header.type, want.type);
        EXPECT_EQ(view->header.deadline_micros, want.deadline);
        ASSERT_EQ(view->payload.size(), want.payload.size());
        EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                               want.payload.begin()));
      }
    }
    EXPECT_EQ(next_expected, corpus.size());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(ZeroCopyDecode, ShortReadReassemblyAcrossCompactionBoundary) {
  // Payloads large enough that the decoder's 64 KiB compaction threshold
  // trips repeatedly while later frames are still partially buffered: the
  // erase moves live partial-frame bytes to the front, and the views
  // handed out afterwards must point at the moved bytes, not the old
  // offsets.
  Rng rng(103);
  const std::vector<CorpusFrame> corpus =
      random_corpus(rng, 10, /*max_payload=*/20 * 1024);
  const std::vector<std::uint8_t> stream = concat_stream(corpus);

  FrameDecoder decoder;
  std::size_t next_expected = 0;
  std::size_t fed = 0;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.uniform_index(7000), stream.size() - fed);
    decoder.feed(stream.data() + fed, chunk);
    fed += chunk;
    while (std::optional<FrameView> view = decoder.next_view()) {
      ASSERT_LT(next_expected, corpus.size());
      const CorpusFrame& want = corpus[next_expected++];
      ASSERT_EQ(view->payload.size(), want.payload.size());
      EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                             want.payload.begin()))
          << "frame " << next_expected - 1;
    }
  }
  EXPECT_EQ(next_expected, corpus.size());
}

TEST(ZeroCopyDecode, ViewsFromOneFeedStayValidUntilNextFeed) {
  // Multiple frames landing in a single feed: taking the second view must
  // not invalidate the first (no compaction happens between next_view
  // calls, only inside feed).
  const std::vector<std::uint8_t> p1 = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> p2 = {9, 8, 7};
  std::vector<std::uint8_t> stream;
  encode_frame_into(stream, FrameType::Ping, p1);
  encode_frame_into(stream, FrameType::ErrorReply, p2);

  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::optional<FrameView> v1 = decoder.next_view();
  std::optional<FrameView> v2 = decoder.next_view();
  ASSERT_TRUE(v1 && v2);
  EXPECT_TRUE(std::equal(v1->payload.begin(), v1->payload.end(), p1.begin()));
  EXPECT_TRUE(std::equal(v2->payload.begin(), v2->payload.end(), p2.begin()));
  EXPECT_FALSE(decoder.next_view());
}

TEST(ZeroCopyDecode, NextAndNextViewDecodeIdentically) {
  Rng rng(107);
  const std::vector<CorpusFrame> corpus = random_corpus(rng, 8, 200);
  const std::vector<std::uint8_t> stream = concat_stream(corpus);

  FrameDecoder by_copy;
  FrameDecoder by_view;
  by_copy.feed(stream.data(), stream.size());
  by_view.feed(stream.data(), stream.size());
  while (true) {
    std::optional<Frame> frame = by_copy.next();
    std::optional<FrameView> view = by_view.next_view();
    ASSERT_EQ(frame.has_value(), view.has_value());
    if (!frame) break;
    EXPECT_EQ(frame->header.type, view->header.type);
    EXPECT_EQ(frame->header.payload_crc, view->header.payload_crc);
    ASSERT_EQ(frame->payload.size(), view->payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           frame->payload.begin()));
  }
}

TEST(ZeroCopyDecode, CorruptPayloadThrowsThroughNextView) {
  std::vector<std::uint8_t> stream =
      encode_frame(FrameType::Ping, {1, 2, 3, 4, 5, 6, 7, 8});
  stream[kFrameHeaderSize + 3] ^= 0x40;  // flip a payload bit
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_THROW(decoder.next_view(), ProtocolError);
}

TEST(Arena, ResetKeepsCapacity) {
  Arena arena;
  arena.payload().u64(42);
  arena.payload().str("warmup payload");
  encode_frame_into(arena.frames(), FrameType::Pong, arena.payload().data());
  const std::size_t warm = arena.capacity_bytes();
  EXPECT_GT(warm, 0u);
  arena.reset();
  EXPECT_EQ(arena.payload().size(), 0u);
  EXPECT_TRUE(arena.frames().empty());
  EXPECT_EQ(arena.capacity_bytes(), warm);
}

TEST(Arena, WireWriterReuseAdoptsStorage) {
  WireWriter first;
  first.reserve(1024);
  first.u64(7);
  std::vector<std::uint8_t> storage = first.take();
  const std::size_t cap = storage.capacity();
  WireWriter reused(std::move(storage));
  EXPECT_EQ(reused.size(), 0u);        // adopted cleared...
  EXPECT_EQ(reused.capacity(), cap);   // ...but capacity retained
}

TEST(ZeroCopySteadyState, FramingPathAllocatesNothingOnceWarm) {
  // The regression the read-buffer/arena satellites exist for: after the
  // first requests warm every buffer, one request's worth of transport
  // work — feed, next_view (CRC in place), response encode into the
  // arena, frame append, reset — performs ZERO heap allocations.
  serve::Response response;
  response.power_watts = 101.25;
  response.time_seconds = 0.125;
  response.energy_joules = 12.65625;

  const std::vector<std::uint8_t> request_payload(512, 0xa5);
  const std::vector<std::uint8_t> request_bytes =
      encode_frame(FrameType::PredictRequest, request_payload);

  FrameDecoder decoder;
  Arena arena;
  const auto one_request = [&] {
    // Feed in two chunks so the reassembly path runs too.
    const std::size_t half = request_bytes.size() / 2;
    decoder.feed(request_bytes.data(), half);
    ASSERT_FALSE(decoder.next_view().has_value());
    decoder.feed(request_bytes.data() + half, request_bytes.size() - half);
    std::optional<FrameView> view = decoder.next_view();
    ASSERT_TRUE(view.has_value());
    arena.reset();
    WireWriter& payload = arena.payload();
    payload.clear();
    encode_predict_response_into(payload, /*request_id=*/7, response);
    encode_frame_into(arena.frames(), FrameType::PredictResponse,
                      payload.data());
  };

  for (int i = 0; i < 16; ++i) one_request();  // warm all capacities

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) one_request();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations leaked into the warmed hot path";
}

TEST(ZeroCopySteadyState, WarmAllHitBatchAnswerAndReplyEncodeAllocateNothing) {
  // What a server reader does with already-decoded PredictRequests: the
  // synchronous batch answer (grouping, quota, deadline, cache, metrics)
  // and the reply encode into the connection arena.  Once warm, with every
  // answer a cache hit, it allocates nothing.  Request decode into the
  // connection's slots is covered by the next test.
  const gppm::core::Dataset ds =
      gppm::core::build_dataset(gppm::sim::GpuModel::GTX460);
  serve::ServerOptions options;
  options.worker_threads = 1;
  serve::PredictionServer server(options);
  server.load_models(
      gppm::core::UnifiedModel::fit(ds, gppm::core::TargetKind::Power),
      gppm::core::UnifiedModel::fit(ds, gppm::core::TargetKind::ExecTime));

  // 32 requests over 8 profiles and 4 pairs, alternating tenant 0 and an
  // unregistered tenant that falls back to the default family, so the
  // batch splits into two groups.
  const std::vector<gppm::sim::FrequencyPair> pairs =
      gppm::dvfs::configurable_pairs(gppm::sim::GpuModel::GTX460);
  std::vector<serve::Request> requests(32);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].gpu = gppm::sim::GpuModel::GTX460;
    requests[i].tenant = (i % 2 == 0) ? 0 : 7;
    requests[i].counters = ds.samples[i % 8].counters;
    requests[i].pair = pairs[i % 4];
    requests[i].deadline = gppm::Duration::seconds(10.0);
  }
  std::vector<serve::Response> responses(requests.size());
  Arena arena;
  const auto one_read = [&] {
    server.answer(requests, responses, std::chrono::steady_clock::now());
    arena.reset();
    for (std::size_t i = 0; i < responses.size(); ++i) {
      WireWriter& payload = arena.payload();
      payload.clear();
      encode_predict_response_into(payload, i, responses[i]);
      encode_frame_into(arena.frames(), FrameType::PredictResponse,
                        payload.data());
    }
  };

  for (int i = 0; i < 4; ++i) one_read();  // fill the cache, warm the arena
  for (const serve::Response& r : responses) {
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.cache_hit);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) one_read();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in the warmed batch answer path";
  EXPECT_EQ(server.metrics().batches, 54u);
}

TEST(ZeroCopySteadyState, WarmSlotDecodeOfCatalogOnlyRequestsAllocatesNothing) {
  // What a server reader does with each PredictRequest frame: decode it
  // into one of the connection's reused slots.  Dense readings borrow the
  // catalog's names and the slot keeps its readings' capacity, so once the
  // slot has held a Kepler profile, decoding Kepler and Tesla requests
  // into it allocates nothing.
  namespace profiler = gppm::profiler;
  namespace sim = gppm::sim;
  const auto payload_for = [](sim::GpuModel gpu, std::uint64_t id) {
    serve::Request request;
    request.gpu = gpu;
    request.pair = {sim::ClockLevel::Medium, sim::ClockLevel::High};
    request.tenant = 5;
    double v = 1.0;
    for (const profiler::CounterDef& def :
         profiler::counter_catalog(sim::device_spec(gpu).architecture)) {
      request.counters.counters.push_back({def.name, def.klass, v, v * 8.0});
      v += 1.5;
    }
    request.counters.run_time = gppm::Duration::seconds(0.125);
    return encode_predict_request(id, request);
  };
  const std::vector<std::uint8_t> kepler =
      payload_for(sim::GpuModel::GTX680, 1);
  const std::vector<std::uint8_t> tesla = payload_for(sim::GpuModel::GTX285, 2);

  serve::Request slot;
  ASSERT_EQ(decode_predict_request_into(kepler, 100, slot), 1u);  // warm
  ASSERT_EQ(slot.counters.counters.size(), 108u);

  std::uint64_t ids = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    ids += decode_predict_request_into(i % 2 ? tesla : kepler, 100, slot);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in the warmed slot decode";
  EXPECT_EQ(ids, 50u * 1u + 50u * 2u);
  ASSERT_EQ(slot.counters.counters.size(), 32u);  // the last was Tesla
  EXPECT_EQ(slot.gpu, sim::GpuModel::GTX285);
  EXPECT_EQ(slot.counters.counters[31].per_second, (1.0 + 31 * 1.5) * 8.0);
}

}  // namespace
