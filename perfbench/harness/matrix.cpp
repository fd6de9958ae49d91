// defense-matrix: the churn scenario expanded over the default defense
// zoo x every attack x two seeds, one scenario::run_scenario cell at a
// time on the event-driven runtime.
#include <stdexcept>
#include <string>
#include <vector>

#include "byz/attack.h"
#include "checks.h"
#include "fl/aggregators.h"
#include "obs/obs.h"
#include "runtime/async_fedms.h"
#include "scenario/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

// examples/churn.json, kept here so the workload does not move when the
// example does.
constexpr const char* kChurnJson = R"({
  "name": "churn",
  "rounds": 12,
  "clients": 10,
  "servers": 5,
  "byzantine": 1,
  "attack": "signflip",
  "defense": "trmean:0.2",
  "workload": {
    "samples": 512,
    "feature_dimension": 16,
    "dirichlet_alpha": 0.5,
    "batch_size": 16,
    "eval_sample_cap": 128
  },
  "events": [
    {"round": 2, "type": "leave", "client": 3},
    {"round": 3, "type": "join", "client": 3},
    {"round": 4, "type": "ps_crash", "server": 4},
    {"round": 6, "type": "ps_recover", "server": 4},
    {"round": 5, "type": "leave", "client": 7},
    {"round": 7, "type": "attack_switch", "attack": "noise"},
    {"round": 8, "type": "alpha_drift", "alpha": 0.1},
    {"round": 9, "type": "participation", "rate": 0.8}
  ]
})";

struct Matrix {
  std::vector<std::string> defenses;
  std::vector<std::string> attacks;
  std::vector<scenario::Scenario> variants;  // one per attack
};

Matrix make_matrix() {
  Matrix m;
  const scenario::Scenario base = churn_scenario();
  m.defenses = fl::default_defense_zoo(base.fed.servers, base.fed.byzantine);
  m.attacks = byz::list_attack_names();
  for (const std::string& attack : m.attacks) {
    scenario::Scenario variant = base;
    variant.fed.attack = attack;
    m.variants.push_back(std::move(variant));
  }
  return m;
}

// The two cell seeds of the run's `repetition`-th matrix. Every repetition
// draws new seeds, so a run's medians rest on more than one seed pair.
std::vector<std::uint64_t> matrix_seeds(std::uint64_t seed,
                                        std::size_t repetition) {
  const std::uint64_t base = seed * 1000 + repetition;
  return {2 * base + 1, 2 * base + 2};
}

struct Cells {
  std::vector<double> round_s;  // cell wall time / rounds
  std::vector<double> bytes_per_round;
};

// Runs every cell of the matrix once, in (defense, attack, seed) order.
void run_matrix(const Matrix& m, const std::vector<std::uint64_t>& seeds,
                bool traced, Report& report, Cells& cells) {
  std::vector<CellOutcome> outcomes;
  for (const std::string& defense : m.defenses)
    for (std::size_t a = 0; a < m.attacks.size(); ++a)
      for (const std::uint64_t seed : seeds) {
        ++report.attempted;
        try {
          if (traced) obs::set_enabled(true);
          const double t0 = now_s();
          const scenario::ScenarioOutcome outcome =
              scenario::run_scenario(m.variants[a], seed, defense);
          const double wall = now_s() - t0;
          if (traced) {
            obs::set_enabled(false);
            obs::reset();
          }
          const double rounds = double(outcome.result.rounds.size());
          cells.round_s.push_back(wall / rounds);
          cells.bytes_per_round.push_back(
              double(outcome.result.uplink_total.bytes +
                     outcome.result.downlink_total.bytes) /
              rounds);
          outcomes.push_back({defense, m.attacks[a], seed,
                              *outcome.result.final_eval().base.eval_accuracy});
        } catch (const std::exception& error) {
          obs::set_enabled(false);
          ++report.failed;
          report.failures.push_back("cell " + defense + "/" + m.attacks[a] +
                                    " threw: " + error.what());
        }
      }
  const std::string e =
      check_matrix(outcomes, m.defenses, m.attacks, seeds, kMatrixFloor);
  report.check("defense-matrix cells and accuracy floor", e.empty(), e);
  for (const CellOutcome& o : outcomes)
    report.samples["cell_accuracy"].push_back(o.accuracy);
}

// Everything run_scenario does before its first round, replayed through
// the same public calls: fault-plan compilation, data synthesis, learners,
// the event-driven run and the fedgreed root scorer.
double cell_setup_s(const scenario::Scenario& scen, std::uint64_t seed,
                    const std::string& defense, double* make_workload_s) {
  const double t0 = now_s();
  fl::FedMsConfig fed = scen.fed;
  fed.seed = seed;
  fed.client_filter = defense;
  runtime::RuntimeOptions options;
  options.faults = scen.compile_fault_plan(seed);
  options.round_keyed_streams = true;
  options.record_trace = true;
  const double t1 = now_s();
  const fl::Workload data = fl::make_workload(scen.workload, fed);
  *make_workload_s = now_s() - t1;
  runtime::AsyncFedMsRun run(fed, options,
                             fl::make_nn_learners(data, scen.workload, fed));
  fl::install_fedgreed_scorer(run.client_filter(), data, scen.workload, fed);
  return now_s() - t0;
}

}  // namespace

scenario::Scenario churn_scenario() {
  return scenario::Scenario::parse(kChurnJson);
}

void run_defense_matrix(const RunOptions& options, Report& report,
                        LayerValues& layers) {
  const Matrix m = make_matrix();
  std::size_t repetition = 0;
  report.info["engine"] =
      "event-driven runtime via scenario::run_scenario, one cell at a time";
  report.info["scenario"] =
      "churn (examples/churn.json): K=10 P=5 B=1 12 rounds, leave/join, PS "
      "crash+recover, attack switch to noise, alpha drift, participation "
      "0.8; mlp on 16 features, 512 samples";
  report.info["cells"] = std::to_string(m.defenses.size()) + " defenses x " +
                         std::to_string(m.attacks.size()) + " attacks x " +
                         "2 seeds";
  report.info["seeds"] =
      "matrix j of a run uses cell seeds 2*(1000*seed+j)+1 and +2";

  // A cell sets up in well under a millisecond; many repetitions keep the
  // median steady.
  std::vector<double> setups, make_workload;
  const std::vector<std::uint64_t> setup_seeds = matrix_seeds(options.seed, 0);
  for (std::size_t i = 0; i < 101; ++i) {
    double data_s = 0.0;
    setups.push_back(cell_setup_s(m.variants[i % m.attacks.size()],
                                  setup_seeds[i % 2],
                                  m.defenses[i % m.defenses.size()], &data_s));
    make_workload.push_back(data_s);
  }
  report.samples["setup_s"] = setups;

  Cells untraced;
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const double stop = now_s() + untraced_seconds;
  do {
    run_matrix(m, matrix_seeds(options.seed, repetition++), false, report,
               untraced);
  } while (now_s() < stop);
  report.samples["round_s"] = untraced.round_s;
  report.samples["bytes_per_round"] = untraced.bytes_per_round;
  const double round_s = median(untraced.round_s);

  if (!options.trace) {
    report.metric("round_s", round_s, "s");
    report.metric("setup_s", median(setups), "s");
    report.metric("bytes_per_round", median(untraced.bytes_per_round),
                  "bytes");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Cells traced;
  const double traced_stop = now_s() + options.seconds / 2;
  do {
    run_matrix(m, matrix_seeds(options.seed, repetition++), true, report,
               traced);
  } while (now_s() < traced_stop);
  report.samples["traced_round_s"] = traced.round_s;
  layers["scenario.cell_s"] = median(traced.round_s) *
                              double(churn_scenario().fed.rounds);
  layers["scenario.cells"] = double(traced.round_s.size());
  layers["obs.tracing_overhead_s"] = median(traced.round_s) - round_s;
  layers["data.make_workload_s"] = median(make_workload);

  // run_scenario builds its learners inside, so the nn, stage and net
  // layers come from the sync engine on the same scenario's config,
  // without its churn events.
  const scenario::Scenario churn = churn_scenario();
  SyncSpec spec;
  spec.name = "defense-matrix sync replay";
  spec.workload = churn.workload;
  spec.fed = churn.fed;
  spec.fed.seed = matrix_seeds(options.seed, 0)[0];
  SyncTrace trace;
  report.attempted += spec.fed.rounds;
  if (!run_sync_session(spec, true, report, trace))
    report.failed += spec.fed.rounds;
  sync_layer_values(trace, layers);

  const std::size_t d = fl::initial_model(churn.workload, churn.fed).size();
  layers["fl.filter.trmean_us"] = replay_trmean_us(
      churn.fed.servers, churn.fed.byzantine, d, options.seed);
  layers["fl.aggregate_round_us"] = replay_aggregate_round_us(
      churn.fed.clients / churn.fed.servers, d, options.seed);
  layers["byz.disseminate_us"] =
      replay_disseminate_us(churn.fed.attack, d, options.seed);
  layers["net.message_us"] = replay_net_message_us(d);
}

}  // namespace perfbench
