#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace gppm::net {
namespace {

std::vector<std::uint8_t> payload_bytes() {
  std::vector<std::uint8_t> p;
  for (int i = 0; i < 300; ++i) p.push_back(static_cast<std::uint8_t>(i));
  return p;
}

TEST(NetFrame, HeaderLayoutPinned) {
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::PredictRequest, {0xaa, 0xbb}, 0x0102030405060708);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 2);
  EXPECT_EQ(bytes[0], 'G');
  EXPECT_EQ(bytes[1], 'P');
  EXPECT_EQ(bytes[2], 'P');
  EXPECT_EQ(bytes[3], 'M');
  // A frame is stamped with the version that defines its type's layout:
  // PredictRequest's dense layout is v4.
  EXPECT_EQ(bytes[4], 4);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(FrameType::PredictRequest));
  EXPECT_EQ(bytes[6], 0);  // flags LE
  EXPECT_EQ(bytes[7], 0);
  EXPECT_EQ(bytes[8], 2);  // payload size LE
  EXPECT_EQ(bytes[9], 0);
  // deadline LE u64 at offset 16
  EXPECT_EQ(bytes[16], 0x08);
  EXPECT_EQ(bytes[23], 0x01);
  EXPECT_EQ(bytes[24], 0xaa);
  EXPECT_EQ(bytes[25], 0xbb);
}

TEST(NetFrame, RoundTripSingleFeed) {
  const std::vector<std::uint8_t> payload = payload_bytes();
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::PredictResponse, payload, 12345);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::PredictResponse);
  EXPECT_EQ(frame->header.deadline_micros, 12345u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(NetFrame, RoundTripByteByByte) {
  // The decoder must reassemble from the worst possible chunking — the
  // same path an injected net.short_read exercises.
  const std::vector<std::uint8_t> payload = payload_bytes();
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::Ping, payload);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.next().has_value());
  }
  decoder.feed(&bytes[bytes.size() - 1], 1);
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
}

TEST(NetFrame, MultipleFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    const std::vector<std::uint8_t> one = encode_frame(
        FrameType::Pong, {static_cast<std::uint8_t>(i)},
        static_cast<std::uint64_t>(i));
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  for (int i = 0; i < 5; ++i) {
    const std::optional<Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << i;
    EXPECT_EQ(frame->payload[0], i);
    EXPECT_EQ(frame->header.deadline_micros, static_cast<std::uint64_t>(i));
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(NetFrame, EmptyPayloadFrame) {
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::InfoRequest, {});
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(NetFrame, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = encode_frame(FrameType::Ping, {1});
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, RejectsUnknownVersion) {
  std::vector<std::uint8_t> bytes = encode_frame(FrameType::Ping, {1});
  bytes[4] = kProtocolVersion + 1;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes = encode_frame(FrameType::Ping, {1});
  bytes[5] = 0x7f;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, RejectsNonzeroFlags) {
  std::vector<std::uint8_t> bytes = encode_frame(FrameType::Ping, {1});
  bytes[6] = 1;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, RejectsCorruptedPayload) {
  std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::PredictRequest, payload_bytes());
  bytes[kFrameHeaderSize + 7] ^= 0x40;  // flip one payload bit
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, OversizedDeclarationRejectedBeforeBuffering) {
  // A frame header declaring a 4 GiB payload must be rejected from the 24
  // header bytes alone — no allocation, no waiting for the bytes.
  std::vector<std::uint8_t> bytes = encode_frame(FrameType::Ping, {1});
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  bytes[10] = 0xff;
  bytes[11] = 0xff;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), kFrameHeaderSize);  // header only
  EXPECT_THROW(decoder.next(), ProtocolError);

  // Same with a configured cap: one byte over is rejected, at-cap passes.
  FrameDecoder small(64);
  const std::vector<std::uint8_t> over =
      encode_frame(FrameType::Ping, std::vector<std::uint8_t>(65, 0));
  small.feed(over.data(), kFrameHeaderSize);
  EXPECT_THROW(small.next(), ProtocolError);

  FrameDecoder at_cap(64);
  const std::vector<std::uint8_t> fits =
      encode_frame(FrameType::Ping, std::vector<std::uint8_t>(64, 0));
  at_cap.feed(fits.data(), fits.size());
  EXPECT_TRUE(at_cap.next().has_value());
}

TEST(NetFrame, TruncatedStreamNeverThrowsNorYields) {
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::PredictRequest, payload_bytes(), 99);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    if (cut > 0) decoder.feed(bytes.data(), cut);
    EXPECT_FALSE(decoder.next().has_value()) << "cut=" << cut;
    EXPECT_EQ(decoder.buffered(), cut);
  }
}

TEST(NetFrame, RandomCorruptionFuzzNeverCrashes) {
  // Contract: arbitrary corruption yields either a ProtocolError or a
  // decoded frame (flips confined to the unchecksummed deadline field),
  // never a crash, hang or unbounded allocation.
  const std::vector<std::uint8_t> good =
      encode_frame(FrameType::PredictRequest, payload_bytes(), 424242);
  Rng rng(20260807);
  int errors = 0, decoded = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes = good;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_index(bytes.size());
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    FrameDecoder decoder;
    try {
      decoder.feed(bytes.data(), bytes.size());
      if (decoder.next().has_value()) ++decoded;
    } catch (const ProtocolError&) {
      ++errors;
    }
  }
  EXPECT_GT(errors, 0);
  EXPECT_EQ(errors + decoded <= 2000, true);
}

TEST(NetFrame, RandomGarbageStreamsFuzz) {
  // Pure noise: every outcome must be a typed error or "need more bytes".
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = rng.uniform_index(256);
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    FrameDecoder decoder;
    try {
      decoder.feed(bytes.data(), bytes.size());
      while (decoder.next().has_value()) {
      }
    } catch (const ProtocolError&) {
    }
  }
}

TEST(NetFrame, FrameTypeNames) {
  EXPECT_EQ(to_string(FrameType::Ping), "ping");
  EXPECT_EQ(to_string(FrameType::PredictRequest), "predict-request");
  EXPECT_EQ(to_string(FrameType::HealthRequest), "health-request");
  EXPECT_TRUE(frame_type_known(1));
  EXPECT_TRUE(frame_type_known(7));
  EXPECT_FALSE(frame_type_known(0));
  // The health pair exists only from protocol v2 on.
  EXPECT_TRUE(frame_type_known(8));
  EXPECT_TRUE(frame_type_known(9));
  EXPECT_FALSE(frame_type_known(8, kBaseProtocolVersion));
  EXPECT_FALSE(frame_type_known(9, kBaseProtocolVersion));
  EXPECT_FALSE(frame_type_known(10));
}

TEST(NetFrame, HealthFramesStampedV2AndRoundTrip) {
  // Health frames stay at their introduction version (2), not the build's
  // top version — stamping the minimum keeps mixed-version fleets talking.
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::HealthRequest, {0x01, 0x02});
  EXPECT_EQ(bytes[4], 2);
  EXPECT_EQ(frame_min_version(FrameType::HealthRequest), 2);
  EXPECT_EQ(frame_min_version(FrameType::Ping), kBaseProtocolVersion);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::HealthRequest);
  EXPECT_EQ(frame->header.version, 2);
}

TEST(NetFrame, PredictRequestStampedV4AndV3PeerRejectsIt) {
  // The dense PredictRequest layout is v4; a v3 peer's decoder rejects the
  // frame by version instead of mis-parsing the payload...
  const std::vector<std::uint8_t> v4 =
      encode_frame(FrameType::PredictRequest, {0x01});
  EXPECT_EQ(v4[4], 4);
  EXPECT_EQ(frame_min_version(FrameType::PredictRequest), 4);
  FrameDecoder decoder;
  decoder.feed(v4.data(), v4.size());
  ASSERT_TRUE(decoder.next().has_value());

  FrameDecoder v3_peer(kDefaultMaxPayload, /*max_version=*/3);
  v3_peer.feed(v4.data(), v4.size());
  EXPECT_THROW(v3_peer.next(), ProtocolError);

  // ...and this build rejects a PredictRequest stamped v1-v3, whose
  // payload would be the old named-only layout.
  for (std::uint8_t old_version = 1; old_version <= 3; ++old_version) {
    std::vector<std::uint8_t> old = v4;
    old[4] = old_version;
    FrameDecoder current;
    current.feed(old.data(), old.size());
    EXPECT_THROW(current.next(), ProtocolError) << int(old_version);
  }

  // The predict response layout did not change: still v1, so a v3 peer
  // reads it.
  const std::vector<std::uint8_t> resp =
      encode_frame(FrameType::PredictResponse, {0x01});
  EXPECT_EQ(resp[4], kBaseProtocolVersion);
  FrameDecoder v3_reader(kDefaultMaxPayload, /*max_version=*/3);
  v3_reader.feed(resp.data(), resp.size());
  EXPECT_TRUE(v3_reader.next().has_value());
}

TEST(NetFrame, OldPeerRejectsHealthFrameCleanly) {
  // A v1-only decoder (an old peer) must reject a v2 health frame as a
  // typed ProtocolError — connection dropped, never mis-parsed.
  const std::vector<std::uint8_t> health =
      encode_frame(FrameType::HealthRequest, {0xff});
  FrameDecoder old_peer(kDefaultMaxPayload, kBaseProtocolVersion);
  old_peer.feed(health.data(), health.size());
  EXPECT_THROW(old_peer.next(), ProtocolError);

  // ...while legacy traffic still flows through the same old decoder.
  const std::vector<std::uint8_t> ping = encode_frame(FrameType::Ping, {1});
  FrameDecoder old_peer2(kDefaultMaxPayload, kBaseProtocolVersion);
  old_peer2.feed(ping.data(), ping.size());
  EXPECT_TRUE(old_peer2.next().has_value());
}

TEST(NetFrame, HealthFrameDowngradedToV1Rejected) {
  // A health frame whose header claims v1 is a protocol violation: the
  // type post-dates the stamped version.
  std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::HealthRequest, {0x07});
  bytes[4] = kBaseProtocolVersion;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(NetFrame, VersionedFuzzNeverCrashes) {
  // Same corruption contract as the unversioned fuzz, but against a
  // v1-capped decoder and a corpus mixing v4 (PredictRequest) and v2
  // frames: every outcome is a typed error or a decoded frame, never a
  // crash.
  const std::vector<std::uint8_t> v4 =
      encode_frame(FrameType::PredictRequest, payload_bytes(), 77);
  const std::vector<std::uint8_t> v2 =
      encode_frame(FrameType::HealthResponse, payload_bytes());
  Rng rng(20260809);
  int errors = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes = (iter % 2 == 0) ? v4 : v2;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_index(bytes.size());
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    FrameDecoder decoder(kDefaultMaxPayload, iter % 4 == 0
                                                 ? kBaseProtocolVersion
                                                 : kProtocolVersion);
    try {
      decoder.feed(bytes.data(), bytes.size());
      while (decoder.next().has_value()) {
      }
    } catch (const ProtocolError&) {
      ++errors;
    }
  }
  EXPECT_GT(errors, 0);
}

}  // namespace
}  // namespace gppm::net
