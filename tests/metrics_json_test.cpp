#include "metrics/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace fedms::metrics {
namespace {

fl::RunResult sample_run() {
  fl::RunResult result;
  for (std::uint64_t t = 0; t < 3; ++t) {
    fl::RoundRecord record;
    record.round = t;
    record.train_loss = 1.0 - 0.1 * double(t);
    if (t == 2) {
      record.eval_accuracy = 0.75;
      record.eval_loss = 0.5;
    }
    record.uplink_bytes = 1000 * (t + 1);
    record.downlink_bytes = 2000 * (t + 1);
    record.upload_seconds = 0.01;
    record.broadcast_seconds = 0.02;
    result.rounds.push_back(record);
  }
  result.uplink_total.messages = 150;
  result.uplink_total.bytes = 6000;
  result.downlink_total.messages = 300;
  result.downlink_total.bytes = 12000;
  result.simulated_comm_seconds = 0.09;
  return result;
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonExport, ContainsConfigAndRounds) {
  fl::FedMsConfig config;
  config.attack = "random";
  config.wire_encoding = "int8";
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"clients\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"attack\": \"random\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_encoding\": \"int8\""), std::string::npos);
  EXPECT_EQ(json.find("\"compression\""), std::string::npos);
  EXPECT_NE(json.find("\"round\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"eval_accuracy\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"uplink_bytes\": 6000"), std::string::npos);
}

TEST(JsonExport, UnevaluatedRoundsAreNull) {
  fl::FedMsConfig config;
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"eval_accuracy\": null"), std::string::npos);
}

TEST(JsonExport, NonFiniteNumbersBecomeNull) {
  fl::FedMsConfig config;
  fl::RunResult result = sample_run();
  result.rounds[0].train_loss = std::nan("");
  std::ostringstream os;
  write_run_json(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"train_loss\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(JsonExport, BalancedBracesAndQuotes) {
  fl::FedMsConfig config;
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  int depth = 0;
  std::size_t quotes = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c == '"') ++quotes;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(JsonExport, SaveToFileThrowsOnBadPath) {
  fl::FedMsConfig config;
  EXPECT_THROW(save_run_json("/nonexistent/dir/run.json", config,
                             sample_run()),
               std::runtime_error);
}

}  // namespace
}  // namespace fedms::metrics
