// Lossy payload quantizers: the base codecs of the negotiated wire
// encodings (src/fl/wire_encoding.h), which shrink each model payload's
// bytes on top of the paper's sparse uploading. Encoding is real (byte
// buffers, not simulated sizes): the traffic numbers the simulated network
// reports are the size of the actual encoded payload, and the receiver
// sees the actual decoded (lossy) values.
//
//   none : float32 passthrough            (4 bytes/coordinate)
//   fp16 : IEEE-754 binary16 round-trip   (2 bytes/coordinate)
//   int8 : per-block max-abs linear quantization
//          (1 byte/coordinate + one float scale per kWireInt8Block values)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fedms::fl {

class PayloadCodec {
 public:
  virtual ~PayloadCodec() = default;

  virtual std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const = 0;
  // Throws std::runtime_error on malformed buffers.
  virtual std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const = 0;

  virtual std::string name() const = 0;

  // Convenience: the lossy round-trip the receiver observes.
  std::vector<float> roundtrip(const std::vector<float>& values) const;
};

using PayloadCodecPtr = std::unique_ptr<PayloadCodec>;

class IdentityCodec final : public PayloadCodec {
 public:
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "none"; }
};

class Fp16Codec final : public PayloadCodec {
 public:
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "fp16"; }
};

// The int8 block width. Model deltas have spiky per-block ranges, and
// the scales of 64-wide blocks cost 6% of the payload for a visibly
// tighter error bound than wider blocks.
inline constexpr std::size_t kWireInt8Block = 64;

class Int8Codec final : public PayloadCodec {
 public:
  // Encodes in blocks of kWireInt8Block values with a per-block scale;
  // decode reads the block width from the buffer.
  std::vector<std::uint8_t> encode(
      const std::vector<float>& values) const override;
  std::vector<float> decode(
      const std::vector<std::uint8_t>& bytes) const override;
  std::string name() const override { return "int8"; }
};

// "none", "fp16", or "int8".
PayloadCodecPtr make_codec(const std::string& name);

// IEEE-754 binary16 conversions (round-to-nearest-even; overflow saturates
// to ±inf, subnormals handled).
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

}  // namespace fedms::fl
