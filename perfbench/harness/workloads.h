// The four benchmark workloads and the per-layer replays they share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "fl/config.h"
#include "fl/experiment.h"
#include "scenario/scenario.h"

namespace perfbench {

// Per-layer values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

// ---- sync engine (mobilenet-train, paper-table2) ----

struct SyncSpec {
  std::string name;
  fl::WorkloadConfig workload;
  fl::FedMsConfig fed;
  double accuracy_floor = 0.0;  // 0 = no accuracy check
};

SyncSpec mobilenet_train_spec(std::uint64_t seed);
SyncSpec paper_table2_spec(std::uint64_t seed);

// Runs the workload for options.seconds of whole sessions (set-up plus
// every round) and fills the end-to-end metrics, or, traced, the
// per-layer ones.
void run_sync_workload(const SyncSpec& base, const RunOptions& options,
                       Report& report, LayerValues& layers);

// What one traced session of the sync engine measured, round by round.
struct SyncTrace {
  std::vector<double> window_s;  // wall time of rounds 1..T-1
  std::map<std::string, std::vector<double>> per_round;
  double setup_s = 0.0;
  double make_workload_s = 0.0;
  std::uint64_t steps = 0;
};

// One session: set-up, every round, and the checks. Returns false when it
// threw (the caller counts its rounds as failed).
bool run_sync_session(const SyncSpec& spec, bool traced, Report& report,
                      SyncTrace& trace);

// The sync engine's stage, nn and net metrics, from a traced session.
void sync_layer_values(const SyncTrace& trace, LayerValues& layers);

// ---- defense-matrix ----

// The churn scenario (a copy of examples/churn.json) the matrix expands.
scenario::Scenario churn_scenario();

void run_defense_matrix(const RunOptions& options, Report& report,
                        LayerValues& layers);

// ---- ps-wire ----

// Model size of the paper's MobileNet V2 on CIFAR-10.
inline constexpr std::size_t kPsWireDimension = 2236682;

void run_ps_wire(const RunOptions& options, Report& report,
                 LayerValues& layers);

// ---- replays of public calls at fixed shapes ----

// Median seconds per call of `fn`, over at least `min_reps` calls and
// until `budget_s` has passed.
template <typename Fn>
double time_median(Fn&& fn, int min_reps, double budget_s) {
  std::vector<double> samples;
  const double stop = now_s() + budget_s;
  while (int(samples.size()) < min_reps || now_s() < stop) {
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

// Trimmed-mean client filter over P candidates of dimension d, B of them
// Byzantine-noised (fl.filter.trmean_us).
double replay_trmean_us(std::size_t servers, std::size_t byzantine,
                        std::size_t dimension, std::uint64_t seed);
// One standalone ParameterServer round over `uploads` models
// (fl.aggregate_round_us) and one Byzantine payload under `attack`
// (byz.disseminate_us).
double replay_aggregate_round_us(std::size_t uploads, std::size_t dimension,
                                 std::uint64_t seed);
double replay_disseminate_us(const std::string& attack,
                             std::size_t dimension, std::uint64_t seed);
// One SimNetwork send of a d-float model plus the drain (net.message_us).
double replay_net_message_us(std::size_t dimension);

// Shape-fixed replays every traced run reports: mobilenet leaf layers at
// mobilenet-train's batch, the defense zoo at the churn scenario's P x d,
// and the frame codec, CRC and wire encodings at ps-wire's payload.
void replay_fixed_layers(std::uint64_t seed, LayerValues& layers);

}  // namespace perfbench
