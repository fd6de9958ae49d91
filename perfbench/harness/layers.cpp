// Per-layer replays: the public calls each layer makes, timed one at a
// time at a workload's real shapes.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "byz/attack.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "fl/aggregators.h"
#include "fl/compression.h"
#include "fl/server.h"
#include "fl/wire_encoding.h"
#include "net/sim_network.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "transport/frame.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kReplayBudget = 0.25;  // seconds per replayed call site
constexpr int kReplayMinCalls = 5;

std::vector<float> random_model(core::Rng& rng, std::size_t dimension,
                                double stddev) {
  std::vector<float> model(dimension);
  for (float& v : model) v = float(rng.normal(0.0, stddev));
  return model;
}

// P filter candidates: honest models spread around one center, the first
// B shifted by the noise attack's default deviation.
std::vector<fl::ModelVector> candidates(std::size_t servers,
                                        std::size_t byzantine,
                                        std::size_t dimension,
                                        std::uint64_t seed) {
  core::Rng rng(seed);
  const std::vector<float> center = random_model(rng, dimension, 0.5);
  std::vector<fl::ModelVector> models;
  for (std::size_t i = 0; i < servers; ++i) {
    fl::ModelVector model = center;
    const double spread = i < byzantine ? 2.0 : 0.01;
    for (float& v : model) v += float(rng.normal(0.0, spread));
    models.push_back(std::move(model));
  }
  return models;
}

double filter_us(const fl::Aggregator& rule,
                 const std::vector<fl::ModelVector>& models,
                 std::size_t servers, std::size_t byzantine) {
  return 1e6 * time_median(
                   [&] {
                     volatile float sink = fl::apply_client_filter(
                         rule, models, servers, byzantine)[0];
                     (void)sink;
                   },
                   kReplayMinCalls, kReplayBudget);
}

// ---- mobilenet leaf layers ----

struct Leaf {
  std::string kind;
  nn::LayerPtr layer;
};
struct Block {
  std::vector<Leaf> leaves;
  bool residual = false;
};

// The same layer sequence nn::make_mobilenet_v2_tiny builds for
// mobilenet-train's config, with every leaf reachable for timing.
std::vector<Block> mobilenet_blocks(const nn::MobileNetV2Config& config,
                                    core::Rng& rng) {
  std::vector<Block> blocks;
  Block stem;
  stem.leaves.push_back({"stem_conv", std::make_unique<nn::Conv2d>(
                                          config.in_channels,
                                          config.stem_channels, 3, 1, 1, rng,
                                          false)});
  stem.leaves.push_back(
      {"batchnorm", std::make_unique<nn::BatchNorm2d>(config.stem_channels)});
  stem.leaves.push_back({"relu6", std::make_unique<nn::ReLU6>()});
  blocks.push_back(std::move(stem));
  std::size_t channels = config.stem_channels;
  for (const auto& [out, stride] : config.stages) {
    const std::size_t expanded = channels * config.expansion;
    Block block;
    if (config.expansion > 1) {
      block.leaves.push_back({"conv1x1", std::make_unique<nn::Conv2d>(
                                             channels, expanded, 1, 1, 0, rng,
                                             false)});
      block.leaves.push_back(
          {"batchnorm", std::make_unique<nn::BatchNorm2d>(expanded)});
      block.leaves.push_back({"relu6", std::make_unique<nn::ReLU6>()});
    }
    block.leaves.push_back({"depthwise", std::make_unique<nn::DepthwiseConv2d>(
                                             expanded, 3, stride, 1, rng,
                                             false)});
    block.leaves.push_back(
        {"batchnorm", std::make_unique<nn::BatchNorm2d>(expanded)});
    block.leaves.push_back({"relu6", std::make_unique<nn::ReLU6>()});
    block.leaves.push_back({"conv1x1", std::make_unique<nn::Conv2d>(
                                           expanded, out, 1, 1, 0, rng,
                                           false)});
    block.leaves.push_back(
        {"batchnorm", std::make_unique<nn::BatchNorm2d>(out)});
    block.residual = stride == 1 && channels == out;
    blocks.push_back(std::move(block));
    channels = out;
  }
  Block head;
  head.leaves.push_back({"head", std::make_unique<nn::GlobalAvgPool>()});
  head.leaves.push_back(
      {"head", std::make_unique<nn::Linear>(channels, config.classes, rng)});
  blocks.push_back(std::move(head));
  return blocks;
}

void replay_mobilenet_layers(std::uint64_t seed, LayerValues& layers) {
  const SyncSpec spec = mobilenet_train_spec(seed);
  const fl::Workload data = fl::make_workload(spec.workload, spec.fed);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < spec.workload.batch_size; ++i)
    indices.push_back(data.partition[0][i % data.partition[0].size()]);
  const data::Batch batch = data::make_batch(data.train, indices);

  nn::MobileNetV2Config config;
  config.image_size = spec.workload.image_size;
  config.classes = spec.workload.classes;
  core::Rng rng(seed);
  std::vector<Block> blocks = mobilenet_blocks(config, rng);
  std::vector<nn::ParamRef> params;
  for (Block& block : blocks)
    for (Leaf& leaf : block.leaves) leaf.layer->collect_params(params);
  nn::SoftmaxCrossEntropy loss;
  nn::Sgd sgd(std::make_unique<nn::ConstantSchedule>(
      spec.workload.learning_rate));

  std::map<std::string, std::vector<double>> samples;
  const double stop = now_s() + 4 * kReplayBudget;
  for (int step = 0; step < 10 || now_s() < stop; ++step) {
    std::map<std::string, double> fwd, bwd;
    for (Block& block : blocks)
      for (Leaf& leaf : block.leaves) leaf.layer->zero_grads();
    tensor::Tensor x = batch.inputs;
    std::vector<tensor::Tensor> block_inputs;
    for (Block& block : blocks) {
      block_inputs.push_back(x);
      for (Leaf& leaf : block.leaves) {
        const double t0 = now_s();
        x = leaf.layer->forward(x, true);
        fwd[leaf.kind] += now_s() - t0;
      }
      if (block.residual) x = tensor::add(x, block_inputs.back());
    }
    double t0 = now_s();
    loss.forward(x, batch.labels);
    tensor::Tensor grad = loss.backward();
    samples["nn.loss_us"].push_back(1e6 * (now_s() - t0));
    for (std::size_t b = blocks.size(); b-- > 0;) {
      const tensor::Tensor skip = blocks[b].residual ? grad : tensor::Tensor();
      for (std::size_t l = blocks[b].leaves.size(); l-- > 0;) {
        Leaf& leaf = blocks[b].leaves[l];
        const double t1 = now_s();
        grad = leaf.layer->backward(grad);
        bwd[leaf.kind] += now_s() - t1;
      }
      if (blocks[b].residual) grad = tensor::add(grad, skip);
    }
    t0 = now_s();
    sgd.step(params);
    samples["nn.sgd_update_us"].push_back(1e6 * (now_s() - t0));
    for (const auto& [kind, seconds] : fwd)
      samples["nn." + kind + ".fwd_us"].push_back(1e6 * seconds);
    for (const auto& [kind, seconds] : bwd)
      samples["nn." + kind + ".bwd_us"].push_back(1e6 * seconds);
  }
  for (const auto& [name, values] : samples) layers[name] = median(values);
}

// ---- the defense zoo at the churn scenario's P x d ----

void replay_zoo(std::uint64_t seed, LayerValues& layers) {
  const scenario::Scenario churn = churn_scenario();
  fl::FedMsConfig fed = churn.fed;
  fed.seed = seed;
  const std::size_t P = fed.servers, B = fed.byzantine;
  const fl::Workload data = fl::make_workload(churn.workload, fed);
  const std::size_t d = fl::initial_model(churn.workload, fed).size();
  const std::vector<fl::ModelVector> models = candidates(P, B, d, seed);
  for (const std::string& spec : fl::default_defense_zoo(P, B)) {
    const std::string family = spec.substr(0, spec.find(':'));
    if (family == "trmean") continue;  // replayed at the workload's shape
    fl::AggregatorPtr rule = fl::make_aggregator(spec);
    fl::install_fedgreed_scorer(*rule, data, churn.workload, fed);
    layers["fl.filter." + family + "_us"] = filter_us(*rule, models, P, B);
  }
}

// ---- frame codec, CRC and wire encodings at ps-wire's payload ----

double mb_per_s(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / 1e6 : 0.0;
}

void replay_transport(std::uint64_t seed, LayerValues& layers) {
  const std::size_t d = kPsWireDimension;
  core::Rng rng(seed);
  std::vector<float> values(d);
  for (float& v : values) v = float(rng.uniform(-1.0, 1.0));
  const double raw_bytes = 4.0 * double(d);

  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  layers["transport.crc32c_mb_per_s"] = mb_per_s(
      raw_bytes, time_median(
                     [&] {
                       volatile std::uint32_t crc =
                           transport::crc32c(bytes, 4 * d);
                       (void)crc;
                     },
                     kReplayMinCalls, kReplayBudget));

  const transport::FrameCodec codec("none");
  net::Message message;
  message.from = net::server_id(0);
  message.to = net::client_id(0);
  message.kind = net::MessageKind::kModelBroadcast;
  message.payload = values;
  std::vector<std::uint8_t> frame;
  const double encode_s = time_median(
      [&] {
        frame.clear();
        codec.encode_to(message, frame);
      },
      kReplayMinCalls, kReplayBudget);
  layers["transport.frame_encode_mb_per_s"] =
      mb_per_s(double(frame.size()), encode_s);
  layers["transport.frame_decode_mb_per_s"] = mb_per_s(
      double(frame.size()),
      time_median([&] { volatile bool ok = codec.decode(frame).ok(); (void)ok; },
                  kReplayMinCalls, kReplayBudget));

  // f32 payloads are not transformed by the wire layer; their encoding is
  // the plain float serialization of the "none" payload codec.
  const fl::PayloadCodecPtr identity = fl::make_codec("none");
  std::vector<std::uint8_t> encoded;
  layers["fl.wire.f32.encode_mb_per_s"] = mb_per_s(
      raw_bytes, time_median([&] { encoded = identity->encode(values); },
                             kReplayMinCalls, kReplayBudget));
  layers["fl.wire.f32.decode_mb_per_s"] = mb_per_s(
      raw_bytes,
      time_median([&] { volatile float v = identity->decode(encoded)[0]; (void)v; },
                  kReplayMinCalls, kReplayBudget));
  for (const char* name : {"fp16", "int8"}) {
    fl::WireEncodingSpec spec;
    fl::parse_wire_encoding(name, &spec);
    fl::WireChannel sender(spec), receiver(spec);
    fl::WireEncodeResult wire;
    layers[std::string("fl.wire.") + name + ".encode_mb_per_s"] = mb_per_s(
        raw_bytes, time_median([&] { wire = sender.encode(values); },
                               kReplayMinCalls, kReplayBudget));
    layers[std::string("fl.wire.") + name + ".decode_mb_per_s"] = mb_per_s(
        raw_bytes,
        time_median(
            [&] {
              volatile float v =
                  receiver.decode(spec.format_tag(), wire.bytes)[0];
              (void)v;
            },
            kReplayMinCalls, kReplayBudget));
  }
}

}  // namespace

double replay_trmean_us(std::size_t servers, std::size_t byzantine,
                        std::size_t dimension, std::uint64_t seed) {
  // default_defense_zoo renders trmean:<B/P> the way the tools do.
  const fl::AggregatorPtr rule =
      fl::make_aggregator(fl::default_defense_zoo(servers, byzantine)[1]);
  return filter_us(*rule, candidates(servers, byzantine, dimension, seed),
                   servers, byzantine);
}

double replay_aggregate_round_us(std::size_t uploads, std::size_t dimension,
                                 std::uint64_t seed) {
  core::Rng rng(seed);
  fl::ParameterServer server(0, nullptr, core::Rng(seed));
  server.set_initial_model(std::vector<float>(dimension, 0.0f));
  std::vector<std::vector<float>> received;
  for (std::size_t i = 0; i < uploads; ++i)
    received.push_back(random_model(rng, dimension, 0.5));
  std::uint64_t round = 0;
  return 1e6 * time_median([&] { server.aggregate_round(round++, received); },
                           kReplayMinCalls, kReplayBudget);
}

double replay_disseminate_us(const std::string& attack,
                             std::size_t dimension, std::uint64_t seed) {
  core::Rng rng(seed);
  fl::ParameterServer server(0, byz::make_attack(attack), core::Rng(seed));
  server.set_initial_model(std::vector<float>(dimension, 0.0f));
  server.aggregate_round(0, {random_model(rng, dimension, 0.5)});
  std::size_t client = 0;
  return 1e6 * time_median(
                   [&] {
                     volatile std::size_t n =
                         server.disseminate(0, client++).size();
                     (void)n;
                   },
                   kReplayMinCalls, kReplayBudget);
}

double replay_net_message_us(std::size_t dimension) {
  net::SimNetwork network{core::Rng(1)};
  std::vector<float> payload(dimension, 0.5f);
  return 1e6 * time_median(
                   [&] {
                     net::Message m;
                     m.from = net::client_id(0);
                     m.to = net::server_id(0);
                     m.kind = net::MessageKind::kModelUpload;
                     m.payload = std::move(payload);
                     network.send(std::move(m));
                     payload = std::move(
                         network.drain_inbox(net::server_id(0)).front().payload);
                   },
                   kReplayMinCalls, kReplayBudget);
}

void replay_fixed_layers(std::uint64_t seed, LayerValues& layers) {
  replay_mobilenet_layers(seed, layers);
  replay_zoo(seed, layers);
  replay_transport(seed, layers);
}

}  // namespace perfbench
