// The Fed-MS orchestrator — Algorithm 1 of the paper, run over the
// simulated edge network.
//
// Each round executes the three synchronized stages:
//   1. Local training: every client runs E mini-batch SGD steps.
//   2. Model aggregation: every client uploads its local model to the PSs
//      chosen by the upload strategy (Fed-MS: one uniformly random PS);
//      every PS means the local models it received.
//   3. Model dissemination: every PS sends its aggregate to every client —
//      Byzantine PSs tamper per recipient — and every client runs the
//      Def() filter (Fed-MS: trmean_β) over the P received models to get
//      its next-round starting point.
//
// The client step is fl::ClientRound and the server step fl::ParameterServer
// (built by fl::make_servers), shared with the event-driven and transport
// engines; this loop only runs the stages in lockstep over a SimNetwork.
//
// Vanilla FedAvg without defense is the same loop with filter "mean"; the
// single-PS classic is servers=1, byzantine=0.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/thread_pool.h"
#include "fl/aggregators.h"
#include "fl/client_round.h"
#include "fl/config.h"
#include "fl/learner.h"
#include "fl/server.h"
#include "net/latency.h"
#include "net/sim_network.h"

namespace fedms::fl {

struct RoundRecord {
  std::uint64_t round = 0;
  double train_loss = 0.0;  // mean over clients of mean local-step loss
  // Test metrics averaged over the evaluated clients; unset on rounds where
  // eval_every skipped evaluation.
  std::optional<double> eval_loss;
  std::optional<double> eval_accuracy;
  // Traffic of this round.
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_messages = 0;
  std::uint64_t downlink_messages = 0;
  // Simulated stage times under the latency model.
  double upload_seconds = 0.0;
  double broadcast_seconds = 0.0;
};

struct RunResult {
  std::vector<RoundRecord> rounds;
  net::TrafficStats uplink_total;
  net::TrafficStats downlink_total;
  double simulated_comm_seconds = 0.0;

  // Last record that carries evaluation metrics (contract-violates if the
  // run never evaluated).
  const RoundRecord& final_eval() const;
};

// True when `round` is an evaluation round: every eval_every rounds and
// the last one.
bool is_eval_round(const FedMsConfig& config, std::uint64_t round);

// Stores in `record` the mean test loss and accuracy over the first
// eval_clients learners (all of them when 0), in ascending client order.
void evaluate_clients(const FedMsConfig& config,
                      const std::vector<LearnerPtr>& learners,
                      RoundRecord& record);

class FedMsRun {
 public:
  // `learners` are the K clients (learners.size() must equal
  // config.clients) — all already holding identical initial parameters w₀.
  FedMsRun(FedMsConfig config, std::vector<LearnerPtr> learners);

  // Optional observer invoked after each round's filter step, before
  // evaluation; `learners()` exposes current client states to it.
  using RoundCallback =
      std::function<void(std::uint64_t round,
                         const std::vector<LearnerPtr>& learners)>;
  void set_round_callback(RoundCallback callback);

  // Warm start: installs `global_model` as every client's parameters and
  // every PS's held model (e.g. restored from a checkpoint) before run().
  void install_global_model(const std::vector<float>& global_model);

  // Runs config.rounds rounds and returns the telemetry.
  RunResult run();

  const std::vector<LearnerPtr>& learners() const { return learners_; }
  const std::vector<ParameterServer>& servers() const { return servers_; }
  net::SimNetwork& network() { return network_; }
  // Mutable before run(): configure heterogeneous per-node links etc.
  net::LatencyModel& latency_model() { return latency_; }
  // The client-side Def() built from config.client_filter. Mutable before
  // run() so the experiment layer can install the fedgreed root scorer
  // (fl::install_fedgreed_scorer).
  Aggregator& client_filter() { return *rules_.filter; }

 private:
  void execute_round(std::uint64_t round, RunResult& result);

  FedMsConfig config_;
  std::vector<LearnerPtr> learners_;
  ClientRules rules_;
  std::vector<ClientRound> clients_;
  std::vector<ParameterServer> servers_;
  net::SimNetwork network_;
  net::LatencyModel latency_;
  core::Rng participation_rng_;
  std::vector<double> last_losses_;  // per-client, for highloss selection
  core::ThreadPool pool_;  // local-training fan-out
  RoundCallback callback_;
};

// Convenience: builds the server set (with attacks placed per config) and
// runs. Most callers construct FedMsRun directly; this free function exists
// for the examples.
RunResult run_fedms(FedMsConfig config, std::vector<LearnerPtr> learners);

}  // namespace fedms::fl
