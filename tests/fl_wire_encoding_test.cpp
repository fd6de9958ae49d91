#include "fl/wire_encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/rng.h"
#include "fl/client_round.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace fedms::fl {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

WireEncodingSpec spec_of(const std::string& text) {
  WireEncodingSpec spec;
  const std::string error = parse_wire_encoding(text, &spec);
  EXPECT_EQ(error, "") << text;
  return spec;
}

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> values(n);
  for (auto& v : values) v = float(rng.normal());
  return values;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---- spec grammar ----

TEST(WireEncodingSpec, ParseToStringRoundTrips) {
  for (const char* text : {"f32", "fp16", "int8", "delta+f32", "delta+fp16",
                           "delta+int8", "topk:0.25", "topk:1"}) {
    WireEncodingSpec spec;
    ASSERT_EQ(parse_wire_encoding(text, &spec), "") << text;
    WireEncodingSpec again;
    EXPECT_EQ(parse_wire_encoding(spec.to_string(), &again), "") << text;
    EXPECT_EQ(again.base, spec.base) << text;
    EXPECT_EQ(again.delta, spec.delta) << text;
    EXPECT_DOUBLE_EQ(again.topk, spec.topk) << text;
    EXPECT_EQ(again.format_tag(), spec.format_tag()) << text;
  }
  EXPECT_TRUE(spec_of("f32").is_f32());
  EXPECT_FALSE(spec_of("f32").stateful());
  EXPECT_FALSE(spec_of("fp16").stateful());
  EXPECT_TRUE(spec_of("delta+f32").stateful());
  EXPECT_TRUE(spec_of("topk:0.5").stateful());
}

TEST(WireEncodingSpec, RejectionsAreOneLine) {
  for (const char* text : {"", "f64", "FP16", "topk:0", "topk:1.5",
                           "topk:", "topk:abc", "delta+", "delta+topk:0.5",
                           "delta+delta+f32"}) {
    const std::string error = check_wire_encoding(text);
    EXPECT_NE(error, "") << text;
    EXPECT_EQ(error.find('\n'), std::string::npos) << text;
  }
}

TEST(WireEncodingSpec, FormatTagsMatchConstants) {
  EXPECT_EQ(spec_of("f32").format_tag(), kWireFormatRaw);
  EXPECT_EQ(spec_of("fp16").format_tag(), kWireFormatFp16);
  EXPECT_EQ(spec_of("int8").format_tag(), kWireFormatInt8);
  EXPECT_EQ(spec_of("topk:0.25").format_tag(), kWireFormatTopK);
  EXPECT_EQ(spec_of("delta+f32").format_tag(), kWireFormatDeltaF32);
  EXPECT_EQ(spec_of("delta+fp16").format_tag(), kWireFormatDeltaFp16);
  EXPECT_EQ(spec_of("delta+int8").format_tag(), kWireFormatDeltaInt8);
}

// ---- non-finite values through the lossy bases ----

TEST(WireChannel, Int8KeepsNanAndInfVisible) {
  // A poisoned coordinate must decode as NaN — never saturate into a
  // finite value — and must not widen the finite neighbors' scale.
  std::vector<float> values(kWireInt8Block, 0.25f);
  values[3] = kNan;
  values[7] = kInf;
  values[11] = -kInf;
  WireChannel channel(spec_of("int8"));
  const WireEncodeResult wire = channel.encode(values);
  ASSERT_EQ(wire.decoded.size(), values.size());
  EXPECT_TRUE(std::isnan(wire.decoded[3]));
  EXPECT_TRUE(std::isnan(wire.decoded[7]));
  EXPECT_TRUE(std::isnan(wire.decoded[11]));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == 3 || i == 7 || i == 11) continue;
    EXPECT_NEAR(wire.decoded[i], 0.25f, 0.25 / 127.0) << i;
  }
}

TEST(WireChannel, Fp16KeepsNanAndSignedInf) {
  std::vector<float> values = {1.0f, kNan, kInf, -kInf, 1e6f};
  WireChannel channel(spec_of("fp16"));
  const WireEncodeResult wire = channel.encode(values);
  ASSERT_EQ(wire.decoded.size(), values.size());
  EXPECT_FLOAT_EQ(wire.decoded[0], 1.0f);
  EXPECT_TRUE(std::isnan(wire.decoded[1]));
  EXPECT_TRUE(std::isinf(wire.decoded[2]) && wire.decoded[2] > 0);
  EXPECT_TRUE(std::isinf(wire.decoded[3]) && wire.decoded[3] < 0);
  // Beyond the binary16 range saturates to inf, never a wrong finite.
  EXPECT_TRUE(std::isinf(wire.decoded[4]) && wire.decoded[4] > 0);
}

TEST(WireChannel, DeltaInt8NanPoisonStaysLocal) {
  WireChannel sender(spec_of("delta+int8"));
  WireChannel receiver(spec_of("delta+int8"));
  std::vector<float> values = random_values(2 * kWireInt8Block, 11);
  WireEncodeResult wire = sender.encode(values);  // keyframe
  EXPECT_TRUE(bitwise_equal(
      receiver.decode(kWireFormatDeltaInt8, wire.bytes), wire.decoded));
  values[5] = kNan;
  wire = sender.encode(values);
  const std::vector<float> decoded =
      receiver.decode(kWireFormatDeltaInt8, wire.bytes);
  ASSERT_TRUE(bitwise_equal(decoded, wire.decoded));
  EXPECT_TRUE(std::isnan(decoded[5]));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 5) {
      EXPECT_TRUE(std::isfinite(decoded[i])) << i;
    }
  }
}

// ---- zero-length and all-zero payloads ----

TEST(WireChannel, EmptyModelRoundTripsUnderEveryEncoding) {
  const std::vector<float> empty;
  for (const char* text :
       {"fp16", "int8", "topk:0.25", "delta+f32", "delta+int8"}) {
    WireChannel sender(spec_of(text));
    WireChannel receiver(spec_of(text));
    const WireEncodeResult wire = sender.encode(empty);
    EXPECT_TRUE(wire.decoded.empty()) << text;
    EXPECT_TRUE(
        receiver.decode(spec_of(text).format_tag(), wire.bytes).empty())
        << text;
  }
}

TEST(WireChannel, AllZeroChunksStayExactlyZero) {
  const std::vector<float> zeros(3 * kWireInt8Block + 5, 0.0f);
  for (const char* text : {"fp16", "int8", "topk:0.25", "delta+int8"}) {
    WireChannel channel(spec_of(text));
    const WireEncodeResult wire = channel.encode(zeros);
    ASSERT_EQ(wire.decoded.size(), zeros.size()) << text;
    for (const float v : wire.decoded) EXPECT_EQ(v, 0.0f) << text;
  }
}

// ---- top-k edges: k = 0, k = dim, and the derived count ----

TEST(WireChannelTopK, CountClampsToAtLeastOneAndAtMostDim) {
  EXPECT_EQ(WireChannel::topk_count(0.25, 0), 0u);
  EXPECT_EQ(WireChannel::topk_count(1e-9, 1000), 1u);  // never k = 0
  EXPECT_EQ(WireChannel::topk_count(0.25, 8), 2u);
  EXPECT_EQ(WireChannel::topk_count(1.0, 8), 8u);
  EXPECT_EQ(WireChannel::topk_count(0.3, 10), 3u);
}

TEST(WireChannelTopK, ExplicitZeroKShipsNothingAndValidates) {
  const std::vector<float> values = random_values(16, 3);
  const std::vector<float> reference = random_values(16, 4);
  const std::vector<std::uint8_t> payload =
      WireChannel::encode_topk_payload(values, reference, 0, false);
  EXPECT_EQ(validate_stateful_payload(kWireFormatTopK, payload.data(),
                                      payload.size()),
            "");
  // k = 0: header + count/k words + bitmap, no half values.
  EXPECT_EQ(payload.size(), 5u + 8u + 2u);
  WireChannel receiver(spec_of("topk:0.5"));
  // Establish the matching reference via a keyframe, then apply the
  // explicit k = 0 frame: the model must be exactly unchanged.
  const std::vector<std::uint8_t> keyframe = WireChannel::encode_topk_payload(
      reference, {}, reference.size(), true);
  const std::vector<float> ref_decoded =
      receiver.decode(kWireFormatTopK, keyframe);
  const std::vector<std::uint8_t> zero_k = WireChannel::encode_topk_payload(
      values, ref_decoded, 0, false);
  EXPECT_TRUE(bitwise_equal(receiver.decode(kWireFormatTopK, zero_k),
                            ref_decoded));
}

TEST(WireChannelTopK, FullKShipsEveryCoordinateAsFp16) {
  const std::vector<float> values = random_values(16, 5);
  const std::vector<std::uint8_t> payload = WireChannel::encode_topk_payload(
      values, {}, values.size(), true);
  WireChannel receiver(spec_of("topk:1"));
  const std::vector<float> decoded =
      receiver.decode(kWireFormatTopK, payload);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_FLOAT_EQ(decoded[i], half_to_float(float_to_half(values[i]))) << i;
}

TEST(WireChannelTopK, NonSelectedCoordinatesKeepTheReference) {
  WireChannel sender(spec_of("topk:0.25"));
  WireChannel receiver(spec_of("topk:0.25"));
  std::vector<float> values = random_values(32, 6);
  const WireEncodeResult keyframe = sender.encode(values);
  const std::vector<float> reference =
      receiver.decode(kWireFormatTopK, keyframe.bytes);
  // Move 4 coordinates strongly; with k = ceil(0.25 * 32) = 8 the movers
  // must all ship and at least the untouched majority must stay bitwise.
  for (const std::size_t j : {1u, 9u, 17u, 25u}) values[j] += 3.0f;
  const WireEncodeResult wire = sender.encode(values);
  const std::vector<float> decoded =
      receiver.decode(kWireFormatTopK, wire.bytes);
  ASSERT_TRUE(bitwise_equal(decoded, wire.decoded));
  std::size_t changed = 0;
  for (std::size_t j = 0; j < values.size(); ++j)
    if (std::memcmp(&decoded[j], &reference[j], sizeof(float)) != 0)
      ++changed;
  EXPECT_LE(changed, 8u);
  for (const std::size_t j : {1u, 9u, 17u, 25u})
    EXPECT_NEAR(decoded[j], values[j], std::abs(values[j]) / 512.0 + 1e-3)
        << j;
}

// ---- stream-state faults ----

TEST(WireChannel, DesynchronizedReferenceIsRejected) {
  WireChannel sender(spec_of("delta+fp16"));
  WireChannel receiver(spec_of("delta+fp16"));
  const std::vector<float> values = random_values(24, 7);
  (void)receiver.decode(kWireFormatDeltaFp16, sender.encode(values).bytes);
  // Tamper with the receiver's reference by skipping one sender frame.
  (void)sender.encode(values);
  const WireEncodeResult next = sender.encode(values);
  EXPECT_THROW(
      {
        try {
          (void)receiver.decode(kWireFormatDeltaFp16, next.bytes);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("desynchronized"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(WireChannel, NonKeyframeBeforeKeyframeIsRejected) {
  WireChannel sender(spec_of("delta+f32"));
  const std::vector<float> values = random_values(8, 8);
  (void)sender.encode(values);                        // keyframe
  const WireEncodeResult second = sender.encode(values);  // non-keyframe
  WireChannel fresh(spec_of("delta+f32"));
  EXPECT_THROW((void)fresh.decode(kWireFormatDeltaF32, second.bytes),
               std::runtime_error);
}

TEST(ValidateStatefulPayload, RejectsCorruptMetadataWithOneLineErrors) {
  WireChannel sender(spec_of("topk:0.5"));
  const std::vector<float> values = random_values(16, 9);
  (void)sender.encode(values);
  const WireEncodeResult frame = sender.encode(values);
  const auto expect_reject = [](std::uint8_t tag,
                                std::vector<std::uint8_t> bytes) {
    const std::string error =
        validate_stateful_payload(tag, bytes.data(), bytes.size());
    EXPECT_NE(error, "");
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  };
  // Unknown flag bits.
  auto bad = frame.bytes;
  bad[0] |= 0x80;
  expect_reject(kWireFormatTopK, bad);
  // Index bitmap popcount != k.
  bad = frame.bytes;
  bad[5 + 8] ^= 0x01;
  expect_reject(kWireFormatTopK, bad);
  // Truncated half-value section.
  bad = frame.bytes;
  bad.resize(bad.size() - 1);
  expect_reject(kWireFormatTopK, bad);
  // k > count.
  bad = frame.bytes;
  bad[5 + 4] = 0xff;
  expect_reject(kWireFormatTopK, bad);
  // A stateless tag is never a stateful payload.
  expect_reject(kWireFormatFp16, frame.bytes);
  // Delta with a zeroed int8 block-size word.
  WireChannel delta(spec_of("delta+int8"));
  auto delta_frame = delta.encode(values).bytes;
  for (std::size_t b = 0; b < 4; ++b) delta_frame[5 + 4 + b] = 0;
  expect_reject(kWireFormatDeltaInt8, delta_frame);
}

// A delta frame whose body is truncated or garbled — its header and CRC
// intact — is rejected by the frame codec's structural gate and by the
// receiving stream's one decode, which must leave the reference where it
// was.
TEST(WireChannel, CorruptDeltaBodyIsRejectedByFrameAndStream) {
  for (const char* text : {"delta+fp16", "delta+int8"}) {
    SCOPED_TRACE(text);
    const WireEncodingSpec spec = spec_of(text);
    const std::uint8_t tag = spec.format_tag();
    WireChannel sender(spec);
    WireChannel receiver(spec);
    std::vector<float> values = random_values(100, 11);
    (void)receiver.decode(tag, sender.encode(values).bytes);  // keyframe
    for (float& v : values) v += 0.5f;
    const WireEncodeResult good = sender.encode(values);  // non-keyframe

    std::vector<std::uint8_t> truncated = good.bytes;
    truncated.pop_back();
    std::vector<std::uint8_t> garbled = good.bytes;
    garbled[5] ^= 0x01;  // the base codec's coordinate count
    for (const std::vector<std::uint8_t>& bad : {truncated, garbled}) {
      net::Message m;
      m.from = net::client_id(0);
      m.to = net::server_id(0);
      m.payload = good.decoded;
      m.encoded = bad;
      m.encoded_bytes = bad.size();
      m.wire_format = tag;
      const transport::FrameCodec codec;
      EXPECT_EQ(codec.decode(codec.encode(m)).error,
                transport::FrameError::kBadPayload);

      try {
        (void)receiver.decode(tag, bad);
        ADD_FAILURE() << "corrupt body decoded";
      } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("wire payload: ", 0), 0u) << what;
        EXPECT_EQ(what.find('\n'), std::string::npos) << what;
      }
    }
    // The reference did not move: the intact frame still decodes, to
    // exactly what the sender carried forward.
    EXPECT_TRUE(bitwise_equal(receiver.decode(tag, good.bytes), good.decoded));
  }
}

// ---- mixed-encoding rounds over the in-memory hub ----

TEST(MixedEncodingFleet, ServerHonorsEachPeersAnnouncedEncoding) {
  transport::InMemoryHub hub;
  auto server = hub.make_endpoint(net::server_id(0));
  auto alice = hub.make_endpoint(net::client_id(0), "fp16");
  auto bob = hub.make_endpoint(net::client_id(1), "topk:0.25");
  auto carol = hub.make_endpoint(net::client_id(2));  // default f32

  EXPECT_EQ(server->peer_encoding(net::client_id(0)), "fp16");
  EXPECT_EQ(server->peer_encoding(net::client_id(1)), "topk:0.25");
  EXPECT_EQ(server->peer_encoding(net::client_id(2)), "f32");

  // The PS half is the engines' broadcast step: each client's broadcast
  // goes out in the encoding its hello announced.
  const std::vector<float> model = random_values(64, 10);
  ParameterServer ps(0, nullptr, core::Rng(10));
  ps.set_initial_model(model);
  ps.set_keep_wire_bytes(true);
  for (std::size_t k = 0; k < 3; ++k) {
    WireEncodingSpec spec;
    ASSERT_EQ(parse_wire_encoding(server->peer_encoding(net::client_id(k)),
                                  &spec),
              "");
    server->send(ps.broadcast(/*round=*/0, k, spec));
  }

  const auto take = [](transport::Transport& endpoint) {
    std::optional<net::Message> m = endpoint.receive(5.0);
    EXPECT_TRUE(m.has_value());
    return *m;
  };
  const net::Message to_alice = take(*alice);
  const net::Message to_bob = take(*bob);
  const net::Message to_carol = take(*carol);

  // Lossless client: bit-for-bit, no compression markers.
  EXPECT_EQ(to_carol.wire_format, kWireFormatRaw);
  EXPECT_EQ(to_carol.encoded_bytes, 0u);
  EXPECT_TRUE(bitwise_equal(to_carol.payload, model));

  // fp16 client: half the bytes, values within binary16 rounding.
  EXPECT_EQ(to_alice.wire_format, kWireFormatFp16);
  EXPECT_GT(to_alice.encoded_bytes, 0u);
  EXPECT_LT(to_alice.encoded_bytes, model.size() * 4);
  ASSERT_EQ(to_alice.payload.size(), model.size());
  for (std::size_t j = 0; j < model.size(); ++j)
    EXPECT_NEAR(to_alice.payload[j], model[j],
                std::abs(model[j]) / 1024.0 + 1e-6)
        << j;

  // Top-k client: the keyframe ships all coordinates as fp16.
  EXPECT_EQ(to_bob.wire_format, kWireFormatTopK);
  ASSERT_EQ(to_bob.payload.size(), model.size());
  for (std::size_t j = 0; j < model.size(); ++j)
    EXPECT_NEAR(to_bob.payload[j], model[j],
                std::abs(model[j]) / 1024.0 + 1e-6)
        << j;
}

}  // namespace
}  // namespace fedms::fl
