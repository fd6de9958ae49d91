// mobilenet-train and paper-table2: the round-synchronous engine
// (fl::FedMsRun) driven through its public API, timed round by round from
// its round callback.
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "fl/fedms.h"
#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Forwards every call to the real learner and times it; the totals are
// taken (and reset) once per round from the round callback.
class TimedLearner final : public fl::LocalLearner {
 public:
  explicit TimedLearner(fl::LearnerPtr inner) : inner_(std::move(inner)) {}

  std::size_t dimension() const override { return inner_->dimension(); }
  std::vector<float> parameters() override {
    const double t0 = now_s();
    std::vector<float> flat = inner_->parameters();
    param_io_s_ += now_s() - t0;
    return flat;
  }
  void set_parameters(const std::vector<float>& flat) override {
    const double t0 = now_s();
    inner_->set_parameters(flat);
    param_io_s_ += now_s() - t0;
  }
  double local_training(std::size_t steps) override {
    const double t0 = now_s();
    const double loss = inner_->local_training(steps);
    train_s_ += now_s() - t0;
    steps_ += steps;
    return loss;
  }
  fl::LearnerEval evaluate() override {
    const double t0 = now_s();
    const fl::LearnerEval eval = inner_->evaluate();
    evaluate_s_ += now_s() - t0;
    return eval;
  }

  fl::LocalLearner& inner() { return *inner_; }

  struct Totals {
    double train_s = 0.0, param_io_s = 0.0, evaluate_s = 0.0;
    std::uint64_t steps = 0;
  };
  void take(Totals& into) {
    into.train_s += train_s_;
    into.param_io_s += param_io_s_;
    into.evaluate_s += evaluate_s_;
    into.steps += steps_;
    train_s_ = param_io_s_ = evaluate_s_ = 0.0;
    steps_ = 0;
  }

 private:
  fl::LearnerPtr inner_;
  double train_s_ = 0.0, param_io_s_ = 0.0, evaluate_s_ = 0.0;
  std::uint64_t steps_ = 0;
};

const char* const kStages[] = {"local_training", "upload", "aggregation",
                               "dissemination", "filter"};

// Sessions of one run use distinct seeds derived from the run's seed.
std::uint64_t session_seed(std::uint64_t seed, std::size_t session) {
  return seed * 1000 + session + 1;
}

}  // namespace

SyncSpec mobilenet_train_spec(std::uint64_t seed) {
  SyncSpec spec;
  spec.name = "mobilenet-train";
  spec.workload.model = "mobilenet";
  spec.workload.samples = 400;
  spec.workload.batch_size = 32;
  spec.fed.clients = 8;
  spec.fed.servers = 4;
  spec.fed.byzantine = 1;
  spec.fed.local_iterations = 3;
  spec.fed.rounds = 8;
  spec.fed.upload = "sparse";
  spec.fed.attack = "noise";
  // trmean:0.25 trims floor(0.25 * 4) = 1 = B per side. trmean:0.2 at
  // P = 4 trims nothing and lets the noise attack through.
  spec.fed.client_filter = "trmean:0.25";
  spec.fed.eval_every = spec.fed.rounds;  // final round only
  spec.fed.seed = seed;
  return spec;
}

SyncSpec paper_table2_spec(std::uint64_t seed) {
  SyncSpec spec;
  spec.name = "paper-table2";
  // Table II: K = 50, P = 10, B = 2, E = 3, sparse upload, trmean_0.2.
  spec.workload.model = "mlp";
  spec.workload.samples = 3000;
  spec.fed.clients = 50;
  spec.fed.servers = 10;
  spec.fed.byzantine = 2;
  spec.fed.local_iterations = 3;
  spec.fed.rounds = 20;
  spec.fed.upload = "sparse";
  spec.fed.attack = "noise";
  spec.fed.client_filter = "trmean:0.2";
  spec.fed.eval_every = 1;
  spec.fed.seed = seed;
  spec.accuracy_floor = 0.5;
  return spec;
}

bool run_sync_session(const SyncSpec& spec, bool traced, Report& report,
                      SyncTrace& trace) {
  const std::size_t rounds = spec.fed.rounds;
  std::vector<double> enter(rounds, 0.0), leave(rounds, 0.0);
  std::vector<TimedLearner::Totals> totals(rounds);
  std::string envelope_failure;
  try {
    const double t0 = now_s();
    const fl::Workload data = fl::make_workload(spec.workload, spec.fed);
    trace.make_workload_s = now_s() - t0;
    std::vector<fl::LearnerPtr> learners =
        fl::make_nn_learners(data, spec.workload, spec.fed);
    if (traced)
      for (auto& learner : learners)
        learner = std::make_unique<TimedLearner>(std::move(learner));
    fl::FedMsRun run(spec.fed, std::move(learners));
    trace.setup_s = now_s() - t0;

    run.set_round_callback([&](std::uint64_t round,
                               const std::vector<fl::LearnerPtr>& clients) {
      enter[round] = now_s();
      std::vector<std::vector<float>> models, benign;
      for (const auto& client : clients) {
        auto* timed = dynamic_cast<TimedLearner*>(client.get());
        if (timed) timed->take(totals[round]);
        models.push_back(timed ? timed->inner().parameters()
                               : client->parameters());
      }
      for (const fl::ParameterServer& server : run.servers())
        if (!server.is_byzantine()) benign.push_back(server.honest_aggregate());
      const std::string e = check_envelope(models, benign);
      if (!e.empty() && envelope_failure.empty())
        envelope_failure = "round " + std::to_string(round) + ": " + e;
      leave[round] = now_s();
    });

    if (traced) {
      obs::reset();
      obs::set_enabled(true);
    }
    const fl::RunResult result = run.run();
    if (traced) {
      obs::set_enabled(false);
      for (std::size_t r = 1; r < rounds; ++r)
        for (const char* stage : kStages) trace.per_round[stage].push_back(0);
      for (const obs::SpanRecord& span : obs::snapshot_spans()) {
        if (std::strcmp(span.category, "sim") != 0 || span.round == 0 ||
            span.round >= rounds)
          continue;
        auto it = trace.per_round.find(span.name);
        if (it != trace.per_round.end())
          it->second[span.round - 1] +=
              double(span.end_ns - span.start_ns) * 1e-9;
      }
      obs::reset();
    }

    // Round r's window runs from the end of round r-1's callback to the
    // start of round r's, so it holds round r-1's evaluation and round
    // r's training, upload, aggregation, dissemination and filter, and
    // none of the benchmark's own checks.
    std::vector<double> losses;
    std::vector<std::uint64_t> bytes;
    for (std::size_t r = 0; r < rounds; ++r) {
      losses.push_back(result.rounds[r].train_loss);
      bytes.push_back(result.rounds[r].uplink_bytes +
                      result.rounds[r].downlink_bytes);
      report.samples["bytes_per_round"].push_back(double(bytes.back()));
      if (traced)
        trace.per_round["messages"].push_back(
            double(result.rounds[r].uplink_messages +
                   result.rounds[r].downlink_messages));
      if (r == 0) continue;
      const double window = enter[r] - leave[r - 1];
      trace.window_s.push_back(window);
      if (!traced) continue;
      const TimedLearner::Totals& t = totals[r];
      trace.steps += t.steps;
      trace.per_round["step_ms"].push_back(
          t.steps ? 1e3 * t.train_s / double(t.steps) : 0.0);
      trace.per_round["evaluate_s"].push_back(t.evaluate_s);
      trace.per_round["param_io_s"].push_back(t.param_io_s);
      double accounted = t.evaluate_s;
      for (const char* stage : kStages)
        accounted += trace.per_round[stage][r - 1];
      trace.per_round["unaccounted_s"].push_back(window - accounted);
    }

    report.check(spec.name + " envelope", envelope_failure.empty(),
                 envelope_failure);
    const std::string health = check_training_health(losses);
    report.check(spec.name + " training health", health.empty(), health);
    const std::string cost =
        check_upload_cost(bytes, spec.fed.clients, spec.fed.servers,
                          run.learners().front()->dimension());
    report.check(spec.name + " upload cost", cost.empty(), cost);
    if (spec.accuracy_floor > 0.0) {
      const std::string accuracy = check_accuracy(
          *result.final_eval().eval_accuracy, spec.accuracy_floor);
      report.check(spec.name + " accuracy", accuracy.empty(), accuracy);
    }
    report.samples["final_accuracy"].push_back(
        *result.final_eval().eval_accuracy);
    report.samples["train_loss_last"].push_back(losses.back());
    return true;
  } catch (const std::exception& error) {
    if (traced) {
      obs::set_enabled(false);
      obs::reset();
    }
    report.failures.push_back(spec.name + " session threw: " + error.what());
    return false;
  }
}

void sync_layer_values(const SyncTrace& trace, LayerValues& layers) {
  const auto med = [&](const char* key) {
    const auto it = trace.per_round.find(key);
    return it == trace.per_round.end() ? 0.0 : median(it->second);
  };
  layers["nn.step_ms"] = med("step_ms");
  layers["nn.steps"] = double(trace.steps);
  layers["nn.evaluate_s"] = med("evaluate_s");
  layers["nn.param_io_s"] = med("param_io_s");
  for (const char* stage : kStages)
    layers[std::string("stage.") + stage + "_s"] = med(stage);
  layers["stage.unaccounted_s"] = med("unaccounted_s");
  layers["net.messages"] = med("messages");
}

namespace {

// Runs whole sessions until `seconds` have passed (at least one), and
// appends their rounds to `merged` and their set-up times to `setups`.
void run_sessions(const SyncSpec& base, std::uint64_t seed, double seconds,
                  bool traced, std::size_t& session, Report& report,
                  SyncTrace& merged, std::vector<double>& setups,
                  std::vector<double>& make_workload) {
  const double stop = now_s() + seconds;
  do {
    SyncSpec spec = base;
    spec.fed.seed = session_seed(seed, session++);
    SyncTrace trace;
    report.attempted += spec.fed.rounds;
    if (!run_sync_session(spec, traced, report, trace)) {
      report.failed += spec.fed.rounds;
      continue;
    }
    setups.push_back(trace.setup_s);
    make_workload.push_back(trace.make_workload_s);
    merged.window_s.insert(merged.window_s.end(), trace.window_s.begin(),
                           trace.window_s.end());
    for (const auto& [key, values] : trace.per_round)
      merged.per_round[key].insert(merged.per_round[key].end(),
                                   values.begin(), values.end());
    merged.steps += trace.steps;
  } while (now_s() < stop);
}

}  // namespace

void run_sync_workload(const SyncSpec& base, const RunOptions& options,
                       Report& report, LayerValues& layers) {
  report.info["engine"] = "sync (fl::FedMsRun), worker_threads 0";
  report.info["topology"] =
      "K=" + std::to_string(base.fed.clients) +
      " P=" + std::to_string(base.fed.servers) +
      " B=" + std::to_string(base.fed.byzantine) +
      " E=" + std::to_string(base.fed.local_iterations) +
      " rounds/session=" + std::to_string(base.fed.rounds);
  report.info["protocol"] = "upload " + base.fed.upload + ", filter " +
                            base.fed.client_filter + ", attack " +
                            base.fed.attack + ", eval_every " +
                            std::to_string(base.fed.eval_every);
  report.info["model"] = base.workload.model + ", samples " +
                         std::to_string(base.workload.samples) + ", batch " +
                         std::to_string(base.workload.batch_size);
  report.info["seeds"] = "session i uses fed.seed = seed*1000 + i + 1";

  std::size_t session = 0;
  std::vector<double> setups, make_workload;
  SyncTrace untraced;
  // A traced run spends half its time untraced to price the tracing.
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  run_sessions(base, options.seed, untraced_seconds, false, session, report,
               untraced, setups, make_workload);
  // Set-up is short next to a session: repeat it alone until there are
  // enough samples for a steady median.
  while (setups.size() < 21) {
    SyncSpec spec = base;
    spec.fed.seed = session_seed(options.seed, session++);
    const double t0 = now_s();
    const fl::Workload data = fl::make_workload(spec.workload, spec.fed);
    make_workload.push_back(now_s() - t0);
    fl::FedMsRun run(spec.fed,
                     fl::make_nn_learners(data, spec.workload, spec.fed));
    setups.push_back(now_s() - t0);
  }
  report.samples["round_s"] = untraced.window_s;
  report.samples["setup_s"] = setups;
  const double round_s = median(untraced.window_s);

  if (!options.trace) {
    report.metric("round_s", round_s, "s");
    report.metric("setup_s", median(setups), "s");
    report.metric("bytes_per_round", median(report.samples["bytes_per_round"]),
                  "bytes");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  SyncTrace traced;
  run_sessions(base, options.seed, options.seconds / 2, true, session, report,
               traced, setups, make_workload);
  report.samples["traced_round_s"] = traced.window_s;
  sync_layer_values(traced, layers);
  layers["data.make_workload_s"] = median(make_workload);
  layers["obs.tracing_overhead_s"] = median(traced.window_s) - round_s;

  const std::size_t d = fl::initial_model(base.workload, base.fed).size();
  const std::uint64_t seed = options.seed;
  layers["fl.filter.trmean_us"] =
      replay_trmean_us(base.fed.servers, base.fed.byzantine, d, seed);
  layers["fl.aggregate_round_us"] = replay_aggregate_round_us(
      base.fed.clients / base.fed.servers, d, seed);
  layers["byz.disseminate_us"] =
      replay_disseminate_us(base.fed.attack, d, seed);
  layers["net.message_us"] = replay_net_message_us(d);
}

}  // namespace perfbench
