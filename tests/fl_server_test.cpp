#include "fl/server.h"

#include <gtest/gtest.h>

#include <cstring>

#include "byz/attack.h"
#include "byz/attacks.h"
#include "fl/wire_encoding.h"

namespace fedms::fl {
namespace {

net::Message upload_from(std::size_t client, std::vector<float> payload) {
  net::Message m;
  m.from = net::client_id(client);
  m.to = net::server_id(0);
  m.kind = net::MessageKind::kModelUpload;
  m.payload = std::move(payload);
  return m;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Server, BenignAggregatesMean) {
  ParameterServer server(0, nullptr, core::Rng(1));
  server.set_initial_model({0.0f, 0.0f});
  server.aggregate_round(0, {{1, 10}, {3, 20}});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{2, 15}));
  EXPECT_EQ(server.last_upload_count(), 2u);
  EXPECT_FALSE(server.is_byzantine());
}

TEST(Server, BenignDisseminatesHonestAggregate) {
  ParameterServer server(0, nullptr, core::Rng(2));
  server.set_initial_model({1.0f});
  server.aggregate_round(0, {{4.0f}});
  EXPECT_EQ(server.disseminate(0, 7), (std::vector<float>{4.0f}));
  // Every client receives the same payload from a benign PS.
  EXPECT_EQ(server.disseminate(0, 0), server.disseminate(0, 42));
}

TEST(Server, EmptyRoundKeepsPreviousAggregate) {
  ParameterServer server(0, nullptr, core::Rng(3));
  server.set_initial_model({9.0f});
  server.aggregate_round(0, {});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{9.0f}));
  EXPECT_EQ(server.last_upload_count(), 0u);
  server.aggregate_round(1, {{5.0f}});
  server.aggregate_round(2, {});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{5.0f}));
}

TEST(Server, HistoryArchivesPreviousRounds) {
  ParameterServer server(0, nullptr, core::Rng(4));
  server.set_initial_model({0.0f});
  server.aggregate_round(0, {{1.0f}});
  server.aggregate_round(1, {{2.0f}});
  server.aggregate_round(2, {{3.0f}});
  // history = [w0, round-0 aggregate, round-1 aggregate].
  ASSERT_EQ(server.history().size(), 3u);
  EXPECT_EQ(server.history()[0], (std::vector<float>{0.0f}));
  EXPECT_EQ(server.history()[1], (std::vector<float>{1.0f}));
  EXPECT_EQ(server.history()[2], (std::vector<float>{2.0f}));
}

TEST(Server, HistoryBoundedByLimit) {
  ParameterServer server(0, nullptr, core::Rng(5), /*history_limit=*/3);
  server.set_initial_model({0.0f});
  for (std::uint64_t t = 0; t < 10; ++t)
    server.aggregate_round(t, {{float(t + 1)}});
  ASSERT_EQ(server.history().size(), 3u);
  // Oldest entries were evicted; newest archived is round 8's aggregate.
  EXPECT_EQ(server.history().back(), (std::vector<float>{9.0f}));
}

TEST(Server, ByzantineTampersDissemination) {
  ParameterServer server(2, byz::make_attack("zero"), core::Rng(6));
  server.set_initial_model({1.0f, 1.0f});
  server.aggregate_round(0, {{6.0f, 8.0f}});
  EXPECT_TRUE(server.is_byzantine());
  // Honest aggregate is intact internally...
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{6, 8}));
  // ...but dissemination lies.
  EXPECT_EQ(server.disseminate(0, 0), (std::vector<float>{0, 0}));
}

TEST(Server, SafeguardUsesInitialModelAnchor) {
  auto attack = std::make_unique<byz::SafeguardAttack>(0.5, 1.0);
  ParameterServer server(0, std::move(attack), core::Rng(7));
  server.set_initial_model({2.0f});
  server.aggregate_round(0, {{6.0f}});
  // tampered = 6 - 0.5*(6 - 2) = 4.
  EXPECT_EQ(server.disseminate(0, 0), (std::vector<float>{4.0f}));
}

TEST(Server, BackwardAttackReplaysHistoryThroughServer) {
  ParameterServer server(0, std::make_unique<byz::BackwardAttack>(2),
                         core::Rng(8));
  server.set_initial_model({0.0f});
  server.aggregate_round(0, {{1.0f}});
  server.aggregate_round(1, {{2.0f}});
  server.aggregate_round(2, {{3.0f}});
  // history = [0, 1, 2]; lag 2 over current round (t=2, aggregate 3)
  // replays history[size-2] = the round-0 aggregate = 1.
  EXPECT_EQ(server.disseminate(2, 0), (std::vector<float>{1.0f}));
}

// ---- the server step: receive / aggregate_round / broadcast ----

TEST(ServerRound, UploadsAggregateInAscendingClientOrder) {
  // The mean accumulates in double, so the sum depends on the order only
  // when the magnitudes span more than 2^53: ascending order absorbs the
  // first 1 into 1e17 and yields 1/4; the arrival order below yields 2/4.
  const std::vector<std::vector<float>> ascending = {
      {1e17f}, {1.0f}, {-1e17f}, {1.0f}};
  const std::size_t arrival[] = {2, 0, 3, 1};

  ParameterServer server(0, nullptr, core::Rng(11));
  server.set_initial_model({0.0f});
  for (const std::size_t k : arrival)
    EXPECT_TRUE(server.receive(upload_from(k, ascending[k])));
  server.aggregate_round(0);
  EXPECT_EQ(server.last_upload_count(), 4u);

  ParameterServer oracle(0, nullptr, core::Rng(11));
  oracle.set_initial_model({0.0f});
  oracle.aggregate_round(0, ascending);
  EXPECT_TRUE(bitwise_equal(server.honest_aggregate(),
                            oracle.honest_aggregate()));

  // The values do tell the two orders apart.
  std::vector<std::vector<float>> in_arrival_order;
  for (const std::size_t k : arrival) in_arrival_order.push_back(ascending[k]);
  ParameterServer unordered(0, nullptr, core::Rng(11));
  unordered.set_initial_model({0.0f});
  unordered.aggregate_round(0, in_arrival_order);
  EXPECT_FALSE(bitwise_equal(unordered.honest_aggregate(),
                             oracle.honest_aggregate()));
}

TEST(ServerRound, SecondUploadFromTheSameClientIsDropped) {
  ParameterServer server(0, nullptr, core::Rng(12));
  server.set_initial_model({0.0f});
  EXPECT_TRUE(server.receive(upload_from(3, {2.0f})));
  EXPECT_TRUE(server.receive(upload_from(1, {4.0f})));
  EXPECT_FALSE(server.receive(upload_from(3, {100.0f})));
  server.aggregate_round(0);
  EXPECT_EQ(server.last_upload_count(), 2u);
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{3.0f}));
  // aggregate_round released the uploads: the next round starts empty.
  EXPECT_TRUE(server.receive(upload_from(3, {8.0f})));
  server.aggregate_round(1);
  EXPECT_EQ(server.last_upload_count(), 1u);
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{8.0f}));
}

TEST(ServerRound, EmptyRoundRedisseminatesThePreviousAggregate) {
  ParameterServer server(0, nullptr, core::Rng(13));
  server.set_initial_model({0.0f, 0.0f});
  server.receive(upload_from(0, {1.0f, 3.0f}));
  server.receive(upload_from(1, {3.0f, 5.0f}));
  server.aggregate_round(0);
  server.aggregate_round(1);  // nothing received
  EXPECT_EQ(server.last_upload_count(), 0u);
  const net::Message m = server.broadcast(1, 4, WireEncodingSpec{});
  EXPECT_EQ(m.from, net::server_id(0));
  EXPECT_EQ(m.to, net::client_id(4));
  EXPECT_EQ(m.kind, net::MessageKind::kModelBroadcast);
  EXPECT_EQ(m.round, 1u);
  EXPECT_EQ(m.payload, (std::vector<float>{2.0f, 4.0f}));
  EXPECT_EQ(m.encoded_bytes, 0u);  // f32 ships the floats as they are
}

TEST(ServerRound, StatefulUploadsDecodeOnPerClientStreams) {
  WireEncodingSpec spec;
  ASSERT_EQ(parse_wire_encoding("delta+int8", &spec), "");
  const std::size_t dim = 150;
  ParameterServer server(0, nullptr, core::Rng(14));
  server.set_initial_model(std::vector<float>(dim, 0.0f));
  std::vector<WireChannel> senders(2, WireChannel(spec));
  core::Rng rng(15);
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<std::vector<float>> sent;  // what each client's PS decodes
    // Client 1 sends first: arrival order must not matter either.
    for (const std::size_t k : {1u, 0u}) {
      std::vector<float> values(dim);
      for (float& v : values) v = float(rng.normal()) * float(k + 1);
      net::Message m = upload_from(k, {});
      wire_encode_message(m, values, senders[k], /*keep_bytes=*/true);
      // As the frame codec delivers it: bytes present, floats left to the
      // receiver's stream.
      sent.push_back(std::move(m.payload));
      m.payload.clear();
      EXPECT_TRUE(server.receive(std::move(m)));
    }
    server.aggregate_round(round);
    EXPECT_EQ(server.last_upload_count(), 2u);
    EXPECT_TRUE(bitwise_equal(server.honest_aggregate(),
                              mean_aggregate({sent[1], sent[0]})))
        << "round " << round;
  }
}

TEST(ServerDeath, DisseminateBeforeInitializationAborts) {
  ParameterServer server(0, nullptr, core::Rng(9));
  EXPECT_DEATH((void)server.disseminate(0, 0), "Precondition");
}

TEST(ServerDeath, EmptyInitialModelAborts) {
  ParameterServer server(0, nullptr, core::Rng(10));
  EXPECT_DEATH(server.set_initial_model({}), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
