#include <gtest/gtest.h>

#include <thread>

#include "core/crc32c.h"
#include "core/log.h"
#include "core/stopwatch.h"

namespace fedms::core {
namespace {

TEST(Crc32c, KnownAnswer) {
  // The standard CRC32C check value (RFC 3720 appendix / "123456789").
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  // Checksumming in pieces, seeded by the running CRC, gives the same.
  EXPECT_EQ(crc32c("6789", 4, crc32c("12345", 5)), 0xE3069283u);
}

TEST(Log, LevelThresholdFilters) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped without side effects (observable
  // only via not crashing and the level round-trip here).
  log_info() << "dropped";
  log_error() << "kept";
  set_log_level(saved);
}

TEST(Log, StreamFormatsArbitraryTypes) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);  // keep test output quiet
  log_debug() << "x=" << 42 << " y=" << 1.5 << " z=" << std::string("s");
  set_log_level(saved);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = watch.seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(watch.milliseconds(), watch.seconds() * 1e3,
              watch.seconds() * 100);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.reset();
  EXPECT_LT(watch.seconds(), 0.015);
}

TEST(Stopwatch, MonotonicNonNegative) {
  Stopwatch watch;
  double previous = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = watch.seconds();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

}  // namespace
}  // namespace fedms::core
