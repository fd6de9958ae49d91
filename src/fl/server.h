// Edge-side parameter server: the server half of a Fed-MS round, which
// all three engines drive as they drive fl::ClientRound for the client
// half (receive → aggregate_round → broadcast).
//
// Every PS — benign or Byzantine — aggregates honestly (the mean of the
// local models it received); a Byzantine PS lies at the *dissemination*
// edge, where its Attack rewrites the payload per recipient. Modelling it
// this way keeps the honest aggregate available as the attack's input,
// which Safeguard and Backward need (they are functions of the PS's own
// aggregation history).
//
// If a PS receives no uploads in a round (possible under sparse uploading:
// P(N_i = ∅) = (1 − 1/P)^K per round), it re-disseminates its previous
// aggregate — the initial model w₀ before any round has completed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "byz/attack.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/wire_encoding.h"
#include "net/message.h"

namespace fedms::fl {

class ParameterServer {
 public:
  // `attack == nullptr` means a benign PS. `rng` seeds the attack's private
  // randomness.
  ParameterServer(std::size_t index, byz::AttackPtr attack, core::Rng rng,
                  std::size_t history_limit = 16);

  std::size_t index() const { return index_; }
  bool is_byzantine() const { return attack_ != nullptr; }
  const byz::Attack* attack() const { return attack_.get(); }

  // Model every PS holds before round 0 (w₀), used when N_i is empty.
  void set_initial_model(std::vector<float> w0);

  // Installs a robust PS-side aggregation rule (defense against Byzantine
  // clients); nullptr (the default) means the paper's plain mean.
  void set_aggregator(std::shared_ptr<const Aggregator> aggregator);

  // `keep`: broadcasts carry their encoded bytes (a real transport ships
  // them); simulators only bill their size. Off by default.
  void set_keep_wire_bytes(bool keep) { keep_wire_bytes_ = keep; }

  // Holds one upload for this round, keyed by its sending client, decoding
  // a stateful wire payload on that client's stream first. Returns false
  // (and drops the message) when that client's upload is already held.
  bool receive(net::Message message);

  // Model-aggregation stage of round `round` over the held uploads, in
  // ascending client order (float sums are order-dependent); releases
  // them.
  void aggregate_round(std::uint64_t round);
  // The aggregation rule applied to `received`, or the previous aggregate
  // when it is empty.
  void aggregate_round(std::uint64_t round,
                       const std::vector<std::vector<float>>& received);

  // Payload sent to `client` in the dissemination stage (honest aggregate
  // for a benign PS; the attack's output for a Byzantine one).
  std::vector<float> disseminate(std::uint64_t round, std::size_t client);

  // The round-`round` broadcast to `client`: disseminate(), then — unless
  // `spec` (the encoding `client` asked for) is f32 — encoded on this PS's
  // stream to `client`. An empty payload means the PS stays silent: it
  // goes on no wire and advances no stream.
  net::Message broadcast(std::uint64_t round, std::size_t client,
                         const WireEncodingSpec& spec);

  const std::vector<float>& honest_aggregate() const { return aggregate_; }
  // Honest aggregates of completed earlier rounds, oldest first, bounded by
  // history_limit.
  const std::vector<std::vector<float>>& history() const { return history_; }
  // Clients that uploaded in the last aggregate_round (|N_i| statistics).
  std::size_t last_upload_count() const { return last_upload_count_; }

  // Crash/recovery handoff. crash() sets the live state aside and wipes it
  // back to "before round 0" (aggregate = w₀, empty history, no held
  // uploads); recover() puts it back verbatim, so uploads aggregated
  // before the crash are neither lost nor double-counted. The attack keeps
  // its memory across the handoff.
  void crash();
  void recover();
  bool crashed() const { return crashed_state_.has_value(); }

  // Swaps the dissemination-edge behavior mid-run (scenario attack-mix
  // switches). nullptr makes the PS benign.
  void set_attack(byz::AttackPtr attack);

 private:
  struct State {
    std::vector<float> aggregate;
    std::vector<std::vector<float>> history;
    std::size_t last_upload_count = 0;
    core::Rng rng{0};
  };

  std::size_t index_;
  byz::AttackPtr attack_;
  core::Rng rng_;
  std::size_t history_limit_;
  std::shared_ptr<const Aggregator> aggregator_;  // nullptr -> plain mean
  std::vector<float> initial_model_;  // w₀, kept for attacks that anchor on it
  std::vector<float> aggregate_;
  std::vector<std::vector<float>> history_;
  std::size_t last_upload_count_ = 0;
  std::optional<State> crashed_state_;  // set while crashed

  // This round's uploads, ascending by client; both vectors keep their
  // capacity across rounds.
  std::vector<std::size_t> upload_clients_;
  std::vector<std::vector<float>> uploads_;

  bool keep_wire_bytes_ = false;
  WireChannelBook upload_streams_{WireEncodingSpec{}};     // keyed by client
  WireChannelBook broadcast_streams_{WireEncodingSpec{}};  // keyed by client
};

}  // namespace fedms::fl
