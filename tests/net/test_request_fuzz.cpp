// Seeded mutation fuzz of decode_predict_request (protocol v4).
//
// Every outcome must be a decoded request or a ProtocolError — never any
// other exception, never a read outside the payload.  Each mutant is
// copied into a heap block of exactly its own size, so under
// AddressSanitizer (run_tier1.sh runs this binary's `simd` label in the
// ASan build) a read one byte past the payload is a reported overflow.
//
// Mutations: truncation at every offset, and bit flips aimed at the
// structural bytes of the v4 layout — the dense flag, the dense block,
// the named-reading count and the class bytes of named readings — plus
// untargeted byte corruption.  The slot variant
// (decode_predict_request_into) is checked against fresh decodes across a
// sequence of requests of different sizes into one reused slot.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/protocol.hpp"
#include "profiler/counters.hpp"

namespace {

using namespace gppm::net;
using gppm::Duration;
using gppm::Rng;
namespace profiler = gppm::profiler;
namespace serve = gppm::serve;
namespace sim = gppm::sim;

/// Offset of the dense flag: request id, kind, gpu, policy, pair, tenant.
constexpr std::size_t kDenseFlagAt = 8 + 3 + 2 + 4;

struct Case {
  std::string label;
  serve::Request request;
  std::size_t dense_readings = 0;  ///< catalog entries sent in the block
};

profiler::ProfileResult catalog_profile(sim::Architecture arch, Rng& rng) {
  profiler::ProfileResult counters;
  for (const profiler::CounterDef& def : profiler::counter_catalog(arch)) {
    counters.counters.push_back(
        {def.name, def.klass, rng.normal(1e6, 1e5), rng.normal(1e7, 1e6)});
  }
  counters.run_time = Duration::seconds(0.125);
  return counters;
}

std::vector<Case> corpus() {
  Rng rng(20261017);
  std::vector<Case> cases;

  Case kepler{"gtx680 catalog + mix tail", {}, 108};
  kepler.request.gpu = sim::GpuModel::GTX680;
  kepler.request.counters = catalog_profile(sim::Architecture::Kepler, rng);
  kepler.request.counters.counters.push_back(
      {"mix.bw_pressure", profiler::EventClass::Memory, 0.5, 0.25});
  kepler.request.counters.counters.push_back(
      {"mix.sm_share", profiler::EventClass::Core, 1.5, 0.75});
  kepler.request.tenant = 77;
  cases.push_back(kepler);

  Case tesla{"gtx285 catalog", {}, 32};
  tesla.request.kind = serve::RequestKind::Optimize;
  tesla.request.gpu = sim::GpuModel::GTX285;
  tesla.request.counters = catalog_profile(sim::Architecture::Tesla, rng);
  cases.push_back(tesla);

  Case named{"named only", {}, 0};
  named.request.gpu = sim::GpuModel::GTX480;
  named.request.counters.counters.push_back(
      {"inst_issued", profiler::EventClass::Core, 1.25e9, 3.1e9});
  named.request.counters.counters.push_back(
      {"fb_subp0_read_sectors", profiler::EventClass::Memory, 7.5e6, 0.1});
  named.request.counters.counters.push_back(
      {"", profiler::EventClass::Core, 0.0, -0.0});
  named.request.counters.run_time = Duration::seconds(0.40625);
  cases.push_back(named);
  return cases;
}

/// Decode `bytes` from an exactly sized heap copy.  Returns true on a
/// clean decode, false on ProtocolError; any other exception fails the
/// test.
bool decode_exact(const std::vector<std::uint8_t>& bytes,
                  const std::string& what) {
  const std::size_t n = bytes.size();
  std::unique_ptr<std::uint8_t[]> exact(new std::uint8_t[n == 0 ? 1 : n]);
  if (n > 0) std::memcpy(exact.get(), bytes.data(), n);
  try {
    decode_predict_request(std::span<const std::uint8_t>(exact.get(), n), 0);
    return true;
  } catch (const ProtocolError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped exception " << e.what();
    return false;
  }
}

/// Offsets of the class byte of each named reading.
std::vector<std::size_t> class_byte_offsets(const std::vector<std::uint8_t>& p,
                                            std::size_t named_count_at) {
  std::vector<std::size_t> out;
  const std::size_t count = p[named_count_at] | (p[named_count_at + 1] << 8);
  std::size_t at = named_count_at + 2;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = p[at] | (p[at + 1] << 8);
    at += 2 + len;
    out.push_back(at);
    at += 1 + 16;
  }
  return out;
}

TEST(PredictRequestFuzz, EveryTruncationIsATypedError) {
  for (const Case& c : corpus()) {
    const std::vector<std::uint8_t> payload =
        encode_predict_request(3, c.request);
    ASSERT_TRUE(decode_exact(payload, c.label)) << c.label;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(payload.begin(),
                                             payload.begin() + cut);
      EXPECT_FALSE(decode_exact(prefix, c.label))
          << c.label << " decoded a " << cut << "-byte prefix";
    }
  }
}

TEST(PredictRequestFuzz, StructuralBitFlipsNeverEscapeTheContract) {
  Rng rng(4242);
  for (const Case& c : corpus()) {
    const std::vector<std::uint8_t> payload =
        encode_predict_request(3, c.request);
    ASSERT_EQ(payload[kDenseFlagAt], c.dense_readings > 0 ? 1 : 0) << c.label;
    const std::size_t block_at = kDenseFlagAt + 1;
    const std::size_t named_count_at = block_at + 16 * c.dense_readings;
    const std::vector<std::size_t> class_at =
        class_byte_offsets(payload, named_count_at);

    // Every single-bit flip of the dense flag, the named count and each
    // class byte: only 0/1 flags and classes are valid.
    std::vector<std::size_t> targets = {kDenseFlagAt, named_count_at,
                                        named_count_at + 1};
    targets.insert(targets.end(), class_at.begin(), class_at.end());
    for (const std::size_t at : targets) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> bad = payload;
        bad[at] ^= static_cast<std::uint8_t>(1u << bit);
        decode_exact(bad, c.label);
      }
    }
    // A flag other than 0/1, and a class other than Core/Memory, are
    // rejected outright.
    {
      std::vector<std::uint8_t> bad = payload;
      bad[kDenseFlagAt] = 2;
      EXPECT_FALSE(decode_exact(bad, c.label)) << c.label;
    }
    for (const std::size_t at : class_at) {
      std::vector<std::uint8_t> bad = payload;
      bad[at] = 2;
      EXPECT_FALSE(decode_exact(bad, c.label)) << c.label;
    }
    // Dense block values are raw doubles: any flip there still decodes,
    // to the flipped value.
    for (int i = 0; i < 200 && c.dense_readings > 0; ++i) {
      std::vector<std::uint8_t> bad = payload;
      const std::size_t at = block_at + rng.uniform_index(16 * c.dense_readings);
      bad[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      EXPECT_TRUE(decode_exact(bad, c.label)) << c.label << " @" << at;
    }
  }
}

/// Field-by-field, bit-exact equality of two decoded requests.
void expect_same_request(const serve::Request& got,
                         const serve::Request& want, const std::string& what) {
  EXPECT_EQ(got.kind, want.kind) << what;
  EXPECT_EQ(got.gpu, want.gpu) << what;
  EXPECT_EQ(got.tenant, want.tenant) << what;
  EXPECT_EQ(got.pair, want.pair) << what;
  EXPECT_EQ(got.policy, want.policy) << what;
  EXPECT_EQ(got.deadline.as_seconds(), want.deadline.as_seconds()) << what;
  EXPECT_EQ(got.counters.run_time.as_seconds(),
            want.counters.run_time.as_seconds())
      << what;
  ASSERT_EQ(got.counters.counters.size(), want.counters.counters.size())
      << what;
  for (std::size_t i = 0; i < got.counters.counters.size(); ++i) {
    const profiler::CounterReading& g = got.counters.counters[i];
    const profiler::CounterReading& w = want.counters.counters[i];
    EXPECT_EQ(g.name, w.name) << what << " reading " << i;
    EXPECT_EQ(g.name.is_borrowed(), w.name.is_borrowed()) << what << " " << i;
    EXPECT_EQ(g.klass, w.klass) << what << " reading " << i;
    EXPECT_EQ(std::memcmp(&g.total, &w.total, sizeof g.total), 0) << what;
    EXPECT_EQ(std::memcmp(&g.per_second, &w.per_second, sizeof g.per_second),
              0)
        << what;
  }
}

TEST(PredictRequestFuzz, ReusedSlotDecodesLikeAFreshDecode) {
  // One slot, requests of shrinking and growing size: each decode must
  // leave exactly the new request (no stale readings from a longer one
  // before it), and a malformed payload must still throw ProtocolError.
  const std::vector<Case> cases = corpus();
  Rng rng(31);
  serve::Request fermi_mix;
  fermi_mix.kind = serve::RequestKind::Govern;
  fermi_mix.gpu = sim::GpuModel::GTX460;
  fermi_mix.policy = gppm::core::GovernorPolicy::MinimumEnergy;
  fermi_mix.counters = catalog_profile(sim::Architecture::Fermi, rng);
  fermi_mix.counters.counters.push_back(
      {"mix.sx.inst_issued", profiler::EventClass::Core, 2.5, 1.25});

  using Bytes = std::vector<std::uint8_t>;
  const Bytes kepler = encode_predict_request(1, cases[0].request);
  const Bytes tesla = encode_predict_request(2, cases[1].request);
  const Bytes mix = encode_predict_request(3, fermi_mix);
  const Bytes named = encode_predict_request(4, cases[2].request);
  const Bytes truncated(kepler.begin(), kepler.end() - 9);

  serve::Request slot;
  const auto decode_into = [&](const Bytes& bytes, std::uint64_t deadline,
                               const char* what) {
    const std::uint64_t id =
        decode_predict_request_into(bytes, deadline, slot);
    const DecodedRequest fresh = decode_predict_request(bytes, deadline);
    EXPECT_EQ(id, fresh.request_id) << what;
    expect_same_request(slot, fresh.request, what);
  };
  decode_into(kepler, 2500, "kepler");
  ASSERT_EQ(slot.counters.counters.size(), 110u);
  EXPECT_TRUE(slot.counters.counters[107].name.is_borrowed());
  EXPECT_FALSE(slot.counters.counters[108].name.is_borrowed());
  decode_into(tesla, 0, "tesla after kepler");
  EXPECT_EQ(slot.counters.counters.size(), 32u);
  decode_into(mix, 7, "fermi mix tail after tesla");
  EXPECT_EQ(slot.counters.counters.size(), 75u);
  EXPECT_THROW(decode_predict_request_into(truncated, 0, slot), ProtocolError);
  decode_into(named, 0, "named only after a malformed payload");
  decode_into(kepler, 0, "kepler again");
}

TEST(PredictRequestFuzz, RandomCorruptionNeverEscapesTheContract) {
  Rng rng(917);
  int rejected = 0;
  for (const Case& c : corpus()) {
    const std::vector<std::uint8_t> payload =
        encode_predict_request(3, c.request);
    for (int iter = 0; iter < 1500; ++iter) {
      std::vector<std::uint8_t> bad = payload;
      const int edits = 1 + static_cast<int>(rng.uniform_index(4));
      for (int e = 0; e < edits; ++e) {
        bad[rng.uniform_index(bad.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_index(255));
      }
      if (rng.uniform_index(4) == 0) bad.resize(rng.uniform_index(bad.size()));
      if (!decode_exact(bad, c.label)) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
