// Elastic-membership contracts (scenario engine PR):
//   1. FaultPlan churn/recovery semantics — client_active, crash-wins-ties
//      recovery, topology validation, and spec round-trips;
//   2. RNG stream discipline — with round_keyed_streams, a client's
//      per-round PS-selection draws are a pure function of (seed, round,
//      client), so a late joiner uploads to exactly the PSs it would have
//      chosen had it been present from round 0, and churn-event order
//      never changes the trace;
//   3. PS crash/recovery handoff — snapshot/restore is bit-for-bit (CRC
//      witness), a recovered PS re-enters without double-counting uploads,
//      and clients trim by the degraded-set rule while the PS is down.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "byz/attack.h"
#include "data/convex.h"
#include "fl/aggregators.h"
#include "fl/quadratic_learner.h"
#include "fl/server.h"
#include "runtime/async_fedms.h"
#include "runtime/fault.h"
#include "transport/frame.h"

namespace fedms::runtime {
namespace {

// ---- FaultPlan churn semantics ----

TEST(FaultPlanChurn, NoEventsMeansAlwaysActive) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.client_active(0, 0));
  EXPECT_TRUE(plan.client_active(7, 100));
  EXPECT_EQ(plan.active_client_count(5, 3), 5u);
}

TEST(FaultPlanChurn, LatestEventAtOrBeforeRoundWins) {
  FaultPlan plan;
  plan.churn.push_back(ClientChurn{2, 1, /*join=*/false});
  plan.churn.push_back(ClientChurn{2, 4, /*join=*/true});
  EXPECT_TRUE(plan.client_active(2, 0));   // before any event
  EXPECT_FALSE(plan.client_active(2, 1));  // leave takes effect at 1
  EXPECT_FALSE(plan.client_active(2, 3));
  EXPECT_TRUE(plan.client_active(2, 4));   // rejoin at 4
  EXPECT_TRUE(plan.client_active(2, 9));
  EXPECT_TRUE(plan.client_active(0, 2));   // unrelated client untouched
  EXPECT_EQ(plan.active_client_count(4, 2), 3u);
}

TEST(FaultPlanChurn, EarliestJoinMeansInitiallyInactive) {
  FaultPlan plan;
  plan.churn.push_back(ClientChurn{1, 3, /*join=*/true});
  EXPECT_FALSE(plan.client_active(1, 0));
  EXPECT_FALSE(plan.client_active(1, 2));
  EXPECT_TRUE(plan.client_active(1, 3));
}

TEST(FaultPlanChurn, CrashWinsTieWithRecovery) {
  FaultPlan plan;
  plan.crashes.push_back(ServerCrash{0, 2});
  plan.recoveries.push_back(ServerRecovery{0, 2});
  EXPECT_FALSE(plan.server_crashed(0, 1));
  EXPECT_TRUE(plan.server_crashed(0, 2));  // same-round recovery loses
  // A strictly later recovery brings the server back.
  plan.recoveries.push_back(ServerRecovery{0, 3});
  EXPECT_FALSE(plan.server_crashed(0, 3));
}

TEST(FaultPlanChurn, RecoveryThenSecondCrashGoesDownAgain) {
  FaultPlan plan;
  plan.crashes.push_back(ServerCrash{1, 1});
  plan.recoveries.push_back(ServerRecovery{1, 3});
  plan.crashes.push_back(ServerCrash{1, 5});
  EXPECT_TRUE(plan.server_crashed(1, 2));
  EXPECT_FALSE(plan.server_crashed(1, 4));
  EXPECT_TRUE(plan.server_crashed(1, 6));
}

TEST(FaultPlanChurn, CheckTopologyRejectsOrphansAndDuplicates) {
  FaultPlan orphan;
  orphan.recoveries.push_back(ServerRecovery{0, 2});
  EXPECT_NE(orphan.check_topology(4, 3, 10).find("no earlier crash"),
            std::string::npos);

  FaultPlan duplicate;
  duplicate.churn.push_back(ClientChurn{1, 2, false});
  duplicate.churn.push_back(ClientChurn{1, 2, true});
  EXPECT_FALSE(duplicate.check_topology(4, 3, 10).empty());

  FaultPlan out_of_range;
  out_of_range.churn.push_back(ClientChurn{9, 0, false});
  EXPECT_FALSE(out_of_range.check_topology(4, 3, 10).empty());

  FaultPlan valid;
  valid.crashes.push_back(ServerCrash{2, 1});
  valid.recoveries.push_back(ServerRecovery{2, 3});
  valid.churn.push_back(ClientChurn{0, 2, false});
  EXPECT_EQ(valid.check_topology(4, 3, 10), "");
}

TEST(FaultPlanChurn, SpecClausesRoundTrip) {
  const std::string spec = "crash=2@1;recover=2@3;join=1@2;leave=0@1";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.crashes.size(), 1u);
  ASSERT_EQ(plan.recoveries.size(), 1u);
  ASSERT_EQ(plan.churn.size(), 2u);
  EXPECT_TRUE(plan.churn[0].join);
  EXPECT_FALSE(plan.churn[1].join);
  // to_string parses back to an equivalent plan.
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  EXPECT_NE(plan.to_string().find("recover=2@3"), std::string::npos);
}

// ---- Async runtime under churn ----

data::QuadraticProblem make_problem(std::size_t clients, std::uint64_t seed) {
  data::QuadraticProblemConfig config;
  config.clients = clients;
  config.dimension = 16;
  config.heterogeneity = 0.5;
  config.gradient_noise = 0.5;
  core::Rng rng(seed);
  return data::QuadraticProblem(config, rng);
}

std::vector<fl::LearnerPtr> make_learners(
    const data::QuadraticProblem& problem, const fl::FedMsConfig& fed) {
  const core::SeedSequence seeds(fed.seed);
  std::vector<fl::LearnerPtr> learners;
  learners.reserve(problem.clients());
  for (std::size_t k = 0; k < problem.clients(); ++k)
    learners.push_back(std::make_unique<fl::QuadraticLearner>(
        problem, k, fed.local_iterations, seeds.make_rng("grad-noise", k),
        /*initial_value=*/3.0f));
  return learners;
}

fl::FedMsConfig churn_config() {
  fl::FedMsConfig fed;
  fed.clients = 6;
  fed.servers = 5;
  fed.byzantine = 1;
  fed.rounds = 6;
  fed.local_iterations = 2;
  fed.attack = "noise";
  fed.client_filter = "trmean:0.2";
  fed.byzantine_placement = "first";
  fed.eval_every = 1;
  fed.seed = 11;
  return fed;
}

// Upload targets per (round, client), recorded through the message hook.
using UploadMap =
    std::map<std::pair<std::uint64_t, std::size_t>, std::vector<std::size_t>>;

struct ChurnRun {
  UploadMap uploads;
  AsyncRunResult result;
};

ChurnRun run_with_plan(const FaultPlan& plan) {
  fl::FedMsConfig fed = churn_config();
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);
  RuntimeOptions options;
  options.record_trace = true;
  options.round_keyed_streams = true;
  options.faults = plan;
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));
  ChurnRun out;
  run.set_message_hook(
      [&out](const MessageEvent& event)
          -> std::optional<FaultInjector::LinkFate> {
        if (event.kind == net::MessageKind::kModelUpload)
          out.uploads[{event.round, event.from.index}].push_back(
              event.to.index);
        return std::nullopt;
      });
  out.result = run.run();
  return out;
}

TEST(ChurnStreams, JoinerDrawsTheStreamItWouldOwnFromRoundZero) {
  const ChurnRun still = run_with_plan(FaultPlan{});

  FaultPlan plan;
  plan.churn.push_back(ClientChurn{3, 2, /*join=*/false});
  plan.churn.push_back(ClientChurn{3, 4, /*join=*/true});
  plan.churn.push_back(ClientChurn{5, 1, /*join=*/false});
  const ChurnRun churned = run_with_plan(plan);

  // Every upload an active client makes under churn targets exactly the
  // PSs it targets in the static-membership run — membership changes of
  // OTHER clients never perturb a client's own stream.
  for (const auto& [key, servers] : churned.uploads) {
    const auto it = still.uploads.find(key);
    ASSERT_NE(it, still.uploads.end());
    EXPECT_EQ(servers, it->second)
        << "r" << key.first << " client " << key.second;
  }
  // And absent (round, client) pairs upload nothing at all.
  EXPECT_EQ(churned.uploads.count({2, 3}), 0u);
  EXPECT_EQ(churned.uploads.count({3, 3}), 0u);
  EXPECT_EQ(churned.uploads.count({4, 5}), 0u);
  ASSERT_EQ(churned.uploads.count({4, 3}), 1u);  // rejoined
  EXPECT_EQ(churned.uploads.count({1, 3}), 1u);  // pre-leave rounds ran
}

TEST(ChurnStreams, ChurnEventOrderIsIrrelevantToTheTrace) {
  FaultPlan forward;
  forward.churn.push_back(ClientChurn{3, 2, false});
  forward.churn.push_back(ClientChurn{5, 1, false});
  forward.churn.push_back(ClientChurn{3, 4, true});
  FaultPlan reversed;
  reversed.churn.push_back(ClientChurn{3, 4, true});
  reversed.churn.push_back(ClientChurn{5, 1, false});
  reversed.churn.push_back(ClientChurn{3, 2, false});

  const ChurnRun a = run_with_plan(forward);
  const ChurnRun b = run_with_plan(reversed);
  EXPECT_EQ(a.result.trace_hash, b.result.trace_hash);
  EXPECT_EQ(a.uploads, b.uploads);
}

// ---- PS crash/recovery handoff ----

TEST(PsHandoff, SnapshotRestoreIsBitForBit) {
  const auto make_ps = [] {
    fl::ParameterServer ps(0, byz::make_attack("noise"), core::Rng(7));
    ps.set_initial_model({0.0f, 0.0f, 0.0f});
    ps.aggregate_round(0, {{1.0f, 2.0f, 3.0f}, {3.0f, 2.0f, 1.0f}});
    ps.aggregate_round(1, {{4.0f, 4.0f, 4.0f}});
    return ps;
  };
  // The next dissemination consumes attack randomness; capture it on a
  // twin that never crashes, then prove the recovered PS replays it
  // bit-for-bit (state + RNG round-trip).
  fl::ParameterServer twin = make_ps();
  const std::vector<float> payload = twin.disseminate(2, 0);

  fl::ParameterServer ps = make_ps();
  const std::vector<std::vector<float>> history = ps.history();
  const std::uint32_t aggregate_crc =
      transport::crc32c_floats(ps.honest_aggregate());
  net::Message held;
  held.from = net::client_id(3);
  held.to = net::server_id(0);
  held.payload = {9.0f, 9.0f, 9.0f};
  ASSERT_TRUE(ps.receive(std::move(held)));

  ps.crash();
  EXPECT_TRUE(ps.crashed());
  EXPECT_EQ(ps.honest_aggregate(), std::vector<float>({0.0f, 0.0f, 0.0f}));
  EXPECT_TRUE(ps.history().empty());
  EXPECT_EQ(ps.last_upload_count(), 0u);
  // Draws a crashed PS makes do not leak past its recovery.
  (void)ps.disseminate(2, 0);

  ps.recover();
  EXPECT_FALSE(ps.crashed());
  EXPECT_EQ(transport::crc32c_floats(ps.honest_aggregate()), aggregate_crc);
  EXPECT_EQ(ps.history(), history);
  EXPECT_EQ(ps.last_upload_count(), 1u);
  const std::vector<float> replayed = ps.disseminate(2, 0);
  ASSERT_EQ(replayed.size(), payload.size());
  EXPECT_EQ(transport::crc32c_floats(replayed),
            transport::crc32c_floats(payload));

  // The upload held at the crash was discarded with the live state.
  ps.aggregate_round(2);
  EXPECT_EQ(ps.last_upload_count(), 0u);
  EXPECT_EQ(transport::crc32c_floats(ps.honest_aggregate()), aggregate_crc);
}

TEST(PsHandoff, RecoveredServerRejoinsWithoutDoubleCountingUploads) {
  fl::FedMsConfig fed;
  fed.clients = 4;
  fed.servers = 5;
  fed.byzantine = 1;
  fed.rounds = 5;
  fed.local_iterations = 2;
  fed.upload = "full";
  fed.attack = "noise";
  // An ablation β decoupled from B: the full-quorum target is ⌊0.4·5⌋ = 2
  // per side, so the degraded-set trim over P' = 4 (min(2, ⌊3/2⌋) = 1)
  // genuinely differs from the full-quorum value during the crash rounds.
  fed.client_filter = "trmean:0.4";
  fed.byzantine_placement = "first";
  fed.eval_every = 1;
  fed.seed = 3;
  const data::QuadraticProblem problem = make_problem(fed.clients, 42);

  RuntimeOptions options;
  options.record_trace = true;
  options.faults.crashes.push_back(ServerCrash{4, 1});
  options.faults.recoveries.push_back(ServerRecovery{4, 3});
  AsyncFedMsRun run(fed, options, make_learners(problem, fed));

  const std::size_t target = fl::client_trim_target(0.4, 5, 1);
  const std::size_t degraded = fl::degraded_trim_count(target, 4);
  const std::size_t full_trim = fl::degraded_trim_count(target, 5);
  ASSERT_NE(degraded, full_trim);  // the assertion below must distinguish
  run.set_filter_hook([&](const FilterEvent& event) {
    if (event.round == 1 || event.round == 2) {
      EXPECT_EQ(event.candidates.size(), 4u) << "r" << event.round;
      EXPECT_EQ(event.trim, degraded) << "r" << event.round;
    } else {
      EXPECT_EQ(event.candidates.size(), 5u) << "r" << event.round;
      EXPECT_EQ(event.trim, full_trim) << "r" << event.round;
    }
  });
  // At the end of the recovery round, the recovered PS has aggregated
  // exactly this round's uploads — restore() must not replay the
  // snapshot's pre-crash count on top of the fresh ones.
  std::size_t recovery_round_uploads = 0;
  run.set_round_callback(
      [&](std::uint64_t round, const std::vector<fl::LearnerPtr>&) {
        if (round == 3)
          recovery_round_uploads = run.servers()[4].last_upload_count();
      });

  const AsyncRunResult result = run.run();
  EXPECT_EQ(recovery_round_uploads, fed.clients);

  // The recovery leaves exactly one "recovered" marker in the trace.
  std::size_t recovered_lines = 0;
  for (const std::string& line : result.trace)
    if (line.find("recovered server#4") != std::string::npos)
      ++recovered_lines;
  EXPECT_EQ(recovered_lines, 1u);
}

}  // namespace
}  // namespace fedms::runtime
