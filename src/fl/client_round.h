// One client's step of a Fed-MS round (Algorithm 1), and the run-level
// decisions every engine makes the same way.
//
// The lockstep simulator (FedMsRun), the event-driven runtime
// (runtime::AsyncFedMsRun) and the per-node protocol engine
// (transport::run_client_node / run_server_node) all drive these pieces
// and differ only in how they schedule nodes, move messages and keep time.
// The server half of the round is fl::ParameterServer (fl/server.h),
// built by make_server(s) below. A client's round is:
//
//   train()    E local SGD steps from the model the client holds;
//   upload()   the local model — forged by a Byzantine client, clipped and
//              noised under DP, round-tripped through the per-link wire
//              encoding — as one message per target PS;
//   receive()  the broadcasts that arrive, keyed by source PS;
//   filter()   Def() over those candidates in ascending server order,
//              installed as the client's next model.
//
// Every stochastic decision draws on a named core::SeedSequence stream
// (ps-choice/k, client-attack/k, dp-noise/k, byz-placement, ...),
// in the same order in every engine, so the engines agree bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "byz/client_attacks.h"
#include "core/rng.h"
#include "fl/aggregators.h"
#include "fl/config.h"
#include "fl/learner.h"
#include "fl/server.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"
#include "net/message.h"

namespace fedms::fl {

// ---- run-level decisions ----

// Which PS indices are Byzantine: 0..B-1 under placement "first", else B
// indices drawn once on the byz-placement stream.
std::vector<bool> byzantine_servers(const FedMsConfig& config);

// PS `index` of the run: the configured attack when it is Byzantine, its
// "attack"/index stream, the server-side aggregation rule, holding w₀.
// `keep_wire_bytes`: its broadcasts carry their encoded bytes (a real
// transport ships them); simulators only bill their size.
ParameterServer make_server(const FedMsConfig& config, std::size_t index,
                            std::vector<float> w0, bool keep_wire_bytes);
// All P servers of the run, sharing one server-side aggregation rule.
std::vector<ParameterServer> make_servers(const FedMsConfig& config,
                                          const std::vector<float>& w0,
                                          bool keep_wire_bytes);

// Clients that train and upload this round under partial participation:
// round(participation·K), at least 1.
std::size_t participant_count(const FedMsConfig& config);
// The uniform participation draw on the shared "participation" stream.
// The stream is sequential across rounds, so every caller draws exactly
// once per round, in round order, and only when participation < 1.
std::vector<bool> draw_participants(const FedMsConfig& config,
                                    core::Rng& rng);

// ---- the client step ----

// The run-wide parts of the client step, built once from the config and
// shared by all K ClientRounds.
struct ClientRules {
  // `keep_wire_bytes`: upload messages carry their encoded bytes (a real
  // transport ships them); simulators only bill their size.
  ClientRules(const FedMsConfig& config, bool keep_wire_bytes);

  FedMsConfig config;
  bool keep_wire_bytes = false;
  AggregatorPtr filter;  // Def()
  UploadStrategyPtr upload;
  WireEncodingSpec wire;
  byz::ClientAttackPtr client_attack;  // nullptr without Byzantine clients
  std::vector<bool> byzantine_clients;  // per client
};

class ClientRound {
 public:
  // `rules` and `learner` must outlive the ClientRound.
  ClientRound(const ClientRules& rules, std::size_t client,
              LocalLearner& learner);

  // Replaces the "ps-choice" stream (round-keyed streams in the async
  // runtime re-derive it every round).
  void set_ps_choice(core::Rng rng) { ps_choice_ = rng; }

  // E local steps from the current model; returns the mean step loss.
  // Keeps the round-start model while DP or this client's attack needs it.
  double train();

  // Appends this round's uploads to `out`, one per target PS in draw
  // order. Each carries what its PS decodes.
  void upload(std::uint64_t round, std::vector<net::Message>& out);

  // Keeps one broadcast as a filter candidate, keyed by its source PS,
  // decoding a stateful wire payload first. Returns false (and drops the
  // message) when that PS's candidate is already held.
  bool receive(net::Message message);
  bool has_candidate(std::size_t server) const;
  std::size_t candidate_count() const { return candidates_.size(); }
  void clear_candidates();

  // Sees the filter's inputs (origin PS indices ascending, parallel to the
  // candidates) and the per-side trim (kNoTrim for non-trimming rules);
  // may rewrite the filtered model before it is installed.
  using FilterObserver = std::function<void(
      const std::vector<std::size_t>& servers,
      const std::vector<ModelVector>& candidates, std::size_t trim,
      ModelVector& filtered)>;
  // Def() over the held candidates in ascending server order, installed as
  // the learner's model; consumes the candidates. With none held, returns
  // false and the client continues from its local model.
  bool filter(const FilterObserver& observe = {});

 private:
  void privatize(std::vector<float>& payload);

  const ClientRules* rules_;
  std::size_t client_;
  LocalLearner* learner_;
  bool byzantine_;
  core::Rng ps_choice_;
  core::Rng attack_rng_;  // Byzantine clients only
  core::Rng dp_rng_;      // DP only
  std::vector<float> round_start_;
  std::optional<WireChannelBook> uplinks_;     // keyed by target PS
  std::optional<WireChannelBook> downlinks_;   // keyed by source PS
  // This round's candidates, ascending by source PS; both vectors keep
  // their capacity across rounds.
  std::vector<std::size_t> sources_;
  std::vector<ModelVector> candidates_;
};

}  // namespace fedms::fl
