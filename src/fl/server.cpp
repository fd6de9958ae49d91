#include "fl/server.h"

#include <algorithm>
#include <utility>

#include "core/contracts.h"
#include "fl/aggregators.h"

namespace fedms::fl {

ParameterServer::ParameterServer(std::size_t index, byz::AttackPtr attack,
                                 core::Rng rng, std::size_t history_limit)
    : index_(index),
      attack_(std::move(attack)),
      rng_(rng),
      history_limit_(history_limit) {
  FEDMS_EXPECTS(history_limit > 0);
}

void ParameterServer::set_initial_model(std::vector<float> w0) {
  FEDMS_EXPECTS(!w0.empty());
  initial_model_ = w0;
  aggregate_ = std::move(w0);
}

void ParameterServer::set_aggregator(
    std::shared_ptr<const Aggregator> aggregator) {
  aggregator_ = std::move(aggregator);
}

bool ParameterServer::receive(net::Message message) {
  const std::size_t client = message.from.index;
  const auto at =
      std::lower_bound(upload_clients_.begin(), upload_clients_.end(), client);
  if (at != upload_clients_.end() && *at == client) return false;
  finish_wire_payload(message, upload_streams_);
  uploads_.insert(uploads_.begin() + (at - upload_clients_.begin()),
                  std::move(message.payload));
  upload_clients_.insert(at, client);
  return true;
}

void ParameterServer::aggregate_round(std::uint64_t round) {
  aggregate_round(round, uploads_);
  upload_clients_.clear();
  uploads_.clear();
}

void ParameterServer::aggregate_round(
    std::uint64_t /*round*/, const std::vector<std::vector<float>>& received) {
  last_upload_count_ = received.size();
  // Archive the previous round's aggregate before overwriting it.
  if (!aggregate_.empty()) {
    history_.push_back(aggregate_);
    if (history_.size() > history_limit_)
      history_.erase(history_.begin());
  }
  if (!received.empty()) {
    aggregate_ = aggregator_ ? aggregate_or_mean(*aggregator_, received)
                             : mean_aggregate(received);
  }
  // Otherwise keep the previous aggregate (sparse upload left N_i empty).
  FEDMS_ENSURES(!aggregate_.empty());
}

void ParameterServer::crash() {
  FEDMS_EXPECTS(!crashed());
  crashed_state_ = State{std::move(aggregate_), std::move(history_),
                         last_upload_count_, rng_};
  aggregate_ = initial_model_;
  history_.clear();
  last_upload_count_ = 0;
  upload_clients_.clear();
  uploads_.clear();
}

void ParameterServer::recover() {
  FEDMS_EXPECTS(crashed());
  aggregate_ = std::move(crashed_state_->aggregate);
  history_ = std::move(crashed_state_->history);
  last_upload_count_ = crashed_state_->last_upload_count;
  rng_ = crashed_state_->rng;
  crashed_state_.reset();
}

void ParameterServer::set_attack(byz::AttackPtr attack) {
  attack_ = std::move(attack);
}

std::vector<float> ParameterServer::disseminate(std::uint64_t round,
                                                std::size_t client) {
  FEDMS_EXPECTS(!aggregate_.empty());
  if (!attack_) return aggregate_;
  byz::AttackContext context;
  context.round = round;
  context.server_index = index_;
  context.recipient_client = client;
  context.honest_aggregate = &aggregate_;
  context.history = &history_;
  context.initial_model = &initial_model_;
  return attack_->tamper(context, rng_);
}

net::Message ParameterServer::broadcast(std::uint64_t round,
                                        std::size_t client,
                                        const WireEncodingSpec& spec) {
  net::Message m;
  m.from = net::server_id(index_);
  m.to = net::client_id(client);
  m.kind = net::MessageKind::kModelBroadcast;
  m.round = round;
  m.payload = disseminate(round, client);
  if (m.payload.empty() || spec.is_f32()) return m;
  wire_encode_message(m, m.payload, broadcast_streams_.channel(m.to, spec),
                      keep_wire_bytes_);
  return m;
}

}  // namespace fedms::fl
