#include "fl/client_round.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "byz/attack.h"
#include "core/contracts.h"

namespace fedms::fl {

namespace {

// Byzantine node placement: the first `byzantine` of `count` nodes, or a
// draw on the named stream.
std::vector<bool> placement(std::size_t count, std::size_t byzantine,
                            const std::string& how, std::uint64_t seed,
                            const char* stream) {
  std::vector<bool> mask(count, false);
  if (how == "first") {
    for (std::size_t i = 0; i < byzantine; ++i) mask[i] = true;
  } else {
    core::Rng rng = core::SeedSequence(seed).make_rng(stream);
    for (const std::size_t i : rng.sample_without_replacement(count, byzantine))
      mask[i] = true;
  }
  return mask;
}

ParameterServer build_server(const FedMsConfig& config, std::size_t index,
                             bool byzantine,
                             std::shared_ptr<const Aggregator> rule,
                             std::vector<float> w0, bool keep_wire_bytes) {
  byz::AttackPtr attack;
  if (byzantine) attack = byz::make_attack(config.attack);
  ParameterServer server(index, std::move(attack),
                         core::SeedSequence(config.seed).make_rng("attack",
                                                                  index));
  // PS-side robust aggregation (extension; the paper's setting is mean).
  if (rule) server.set_aggregator(std::move(rule));
  server.set_initial_model(std::move(w0));
  server.set_keep_wire_bytes(keep_wire_bytes);
  return server;
}

std::shared_ptr<const Aggregator> server_rule(const FedMsConfig& config) {
  if (config.server_aggregator == "mean") return nullptr;
  return std::shared_ptr<const Aggregator>(
      make_aggregator(config.server_aggregator));
}

}  // namespace

std::vector<bool> byzantine_servers(const FedMsConfig& config) {
  return placement(config.servers, config.byzantine,
                   config.byzantine_placement, config.seed, "byz-placement");
}

ParameterServer make_server(const FedMsConfig& config, std::size_t index,
                            std::vector<float> w0, bool keep_wire_bytes) {
  FEDMS_EXPECTS(index < config.servers);
  return build_server(config, index, byzantine_servers(config)[index],
                      server_rule(config), std::move(w0), keep_wire_bytes);
}

std::vector<ParameterServer> make_servers(const FedMsConfig& config,
                                          const std::vector<float>& w0,
                                          bool keep_wire_bytes) {
  const std::vector<bool> byzantine = byzantine_servers(config);
  const std::shared_ptr<const Aggregator> rule = server_rule(config);
  std::vector<ParameterServer> servers;
  servers.reserve(config.servers);
  for (std::size_t i = 0; i < config.servers; ++i)
    servers.push_back(
        build_server(config, i, byzantine[i], rule, w0, keep_wire_bytes));
  return servers;
}

std::size_t participant_count(const FedMsConfig& config) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(config.participation *
                                      double(config.clients) +
                                  0.5));
}

std::vector<bool> draw_participants(const FedMsConfig& config,
                                    core::Rng& rng) {
  std::vector<bool> active(config.clients, false);
  for (const std::size_t k : rng.sample_without_replacement(
           config.clients, participant_count(config)))
    active[k] = true;
  return active;
}

ClientRules::ClientRules(const FedMsConfig& run_config, bool keep_bytes)
    : config(run_config), keep_wire_bytes(keep_bytes) {
  config.validate();
  filter = make_aggregator(config.client_filter);
  upload = make_upload_strategy(config.upload);
  FEDMS_EXPECTS(parse_wire_encoding(config.wire_encoding, &wire).empty());
  byzantine_clients.assign(config.clients, false);
  if (config.byzantine_clients > 0) {
    client_attack = byz::make_client_attack(config.client_attack);
    byzantine_clients =
        placement(config.clients, config.byzantine_clients,
                  config.byzantine_client_placement, config.seed,
                  "byz-client-placement");
  }
}

ClientRound::ClientRound(const ClientRules& rules, std::size_t client,
                         LocalLearner& learner)
    : rules_(&rules),
      client_(client),
      learner_(&learner),
      byzantine_(rules.byzantine_clients.at(client)) {
  const core::SeedSequence seeds(rules.config.seed);
  ps_choice_ = seeds.make_rng("ps-choice", client);
  if (byzantine_) attack_rng_ = seeds.make_rng("client-attack", client);
  if (rules.config.dp_clip_norm > 0.0)
    dp_rng_ = seeds.make_rng("dp-noise", client);
  // Negotiated wire encoding: one stream per directed link, so delta/top-k
  // references track what each PS decoded and what each PS sent.
  if (!rules.wire.is_f32()) {
    uplinks_.emplace(rules.wire);
    downlinks_.emplace(rules.wire);
  }
}

double ClientRound::train() {
  // Byzantine clients forge — and DP clips — relative to the model the
  // client started the round from, so capture it before training.
  if (byzantine_ || rules_->config.dp_clip_norm > 0.0)
    round_start_ = learner_->parameters();
  return learner_->local_training(rules_->config.local_iterations);
}

void ClientRound::privatize(std::vector<float>& payload) {
  // Gaussian mechanism on the round update: clip Δ to C in L2, then add
  // per-coordinate noise with stddev z·C.
  const std::vector<float>& start = round_start_;
  FEDMS_ASSERT(start.size() == payload.size());
  double norm_sq = 0.0;
  for (std::size_t j = 0; j < payload.size(); ++j) {
    const double d = double(payload[j]) - start[j];
    norm_sq += d * d;
  }
  const double norm = std::sqrt(norm_sq);
  const double clip = rules_->config.dp_clip_norm;
  const float scale = norm > clip ? static_cast<float>(clip / norm) : 1.0f;
  const double noise_std = rules_->config.dp_noise_multiplier * clip;
  for (std::size_t j = 0; j < payload.size(); ++j) {
    float value = start[j] + scale * (payload[j] - start[j]);
    if (noise_std > 0.0)
      value += static_cast<float>(dp_rng_.normal(0.0, noise_std));
    payload[j] = value;
  }
}

void ClientRound::upload(std::uint64_t round,
                         std::vector<net::Message>& out) {
  const ClientRules& rules = *rules_;
  const auto targets = rules.upload->select_servers(
      client_, round, rules.config.servers, ps_choice_);
  FEDMS_ASSERT(!targets.empty());
  std::vector<float> payload = learner_->parameters();
  if (byzantine_) {
    byz::ClientAttackContext context;
    context.round = round;
    context.client_index = client_;
    context.honest_update = &payload;
    context.round_start = &round_start_;
    payload = rules.client_attack->forge(context, attack_rng_);
  } else if (rules.config.dp_clip_norm > 0.0) {
    privatize(payload);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    net::Message& m = out.emplace_back();
    m.from = net::client_id(client_);
    m.to = net::server_id(targets[i]);
    m.kind = net::MessageKind::kModelUpload;
    m.round = round;
    if (uplinks_) {
      wire_encode_message(m, payload, uplinks_->channel(m.to),
                          rules.keep_wire_bytes);
      continue;
    }
    // Copy for all but the last target; move the final one.
    m.payload = i + 1 == targets.size() ? std::move(payload) : payload;
  }
}

bool ClientRound::receive(net::Message message) {
  if (downlinks_) finish_wire_payload(message, *downlinks_);
  const std::size_t source = message.from.index;
  const auto at = std::lower_bound(sources_.begin(), sources_.end(), source);
  if (at != sources_.end() && *at == source) return false;
  candidates_.insert(candidates_.begin() + (at - sources_.begin()),
                     std::move(message.payload));
  sources_.insert(at, source);
  return true;
}

bool ClientRound::has_candidate(std::size_t server) const {
  return std::binary_search(sources_.begin(), sources_.end(), server);
}

void ClientRound::clear_candidates() {
  sources_.clear();
  candidates_.clear();
}

bool ClientRound::filter(const FilterObserver& observe) {
  if (candidates_.empty()) return false;
  // Network loss or timeouts can thin the set; apply_client_filter
  // re-derives the trim count from B over whatever arrived.
  std::size_t trim = kNoTrim;
  ModelVector filtered =
      apply_client_filter(*rules_->filter, candidates_, rules_->config.servers,
                          rules_->config.byzantine, &trim);
  if (observe) observe(sources_, candidates_, trim, filtered);
  learner_->set_parameters(filtered);
  clear_candidates();
  return true;
}

}  // namespace fedms::fl
