#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "common.h"

namespace perfbench {

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, fmt, args...);
  return buffer;
}

// Model bytes one raw-float32 frame puts on the wire (transport/frame.h):
// 60-byte header, 8-byte value count, 4 bytes per float, 4-byte CRC.
std::uint64_t raw_frame_bytes(std::uint64_t dimension) {
  return 60 + 8 + 4 * dimension + 4;
}

}  // namespace

std::string check_envelope(const std::vector<std::vector<float>>& clients,
                           const std::vector<std::vector<float>>& benign) {
  if (benign.empty()) return "no benign aggregate to compare against";
  const std::size_t d = benign.front().size();
  for (const auto& b : benign)
    if (b.size() != d) return "benign aggregates differ in dimension";
  for (std::size_t k = 0; k < clients.size(); ++k) {
    if (clients[k].size() != d) return "client model dimension mismatch";
    for (std::size_t j = 0; j < d; ++j) {
      double lo = benign[0][j], hi = benign[0][j];
      for (const auto& b : benign) {
        lo = std::min(lo, double(b[j]));
        hi = std::max(hi, double(b[j]));
      }
      const double tol =
          kEnvelopeTolerance * std::max({1.0, std::abs(lo), std::abs(hi)});
      const double x = clients[k][j];
      if (!(x >= lo - tol && x <= hi + tol))
        return format("client %zu coordinate %zu = %g outside the honest "
                      "envelope [%g, %g]",
                      k, j, x, lo, hi);
    }
  }
  return "";
}

std::string check_training_health(const std::vector<double>& losses) {
  if (losses.size() < 2) return "fewer than two rounds of training loss";
  for (std::size_t r = 0; r < losses.size(); ++r)
    if (!std::isfinite(losses[r]))
      return format("training loss not finite in round %zu", r);
  if (!(losses.back() < losses.front()))
    return format("training loss did not fall: first %g, last %g",
                  losses.front(), losses.back());
  return "";
}

std::string check_upload_cost(const std::vector<std::uint64_t>& per_round,
                              std::uint64_t clients, std::uint64_t servers,
                              std::uint64_t dimension) {
  const std::uint64_t expected =
      (clients + clients * servers) * raw_frame_bytes(dimension);
  for (std::size_t r = 0; r < per_round.size(); ++r)
    if (per_round[r] != expected)
      return format("round %zu moved %llu bytes, sparse upload costs %llu",
                    r, (unsigned long long)per_round[r],
                    (unsigned long long)expected);
  return per_round.empty() ? "no rounds" : "";
}

std::string check_accuracy(double accuracy, double floor) {
  if (std::isfinite(accuracy) && accuracy > floor) return "";
  return format("final accuracy %g not above the floor %g", accuracy, floor);
}

std::string check_matrix(const std::vector<CellOutcome>& cells,
                         const std::vector<std::string>& defenses,
                         const std::vector<std::string>& attacks,
                         const std::vector<std::uint64_t>& seeds,
                         double floor) {
  std::map<std::tuple<std::string, std::string, std::uint64_t>, int> seen;
  std::map<std::string, std::vector<double>> by_defense;
  for (const CellOutcome& cell : cells) {
    ++seen[{cell.defense, cell.attack, cell.seed}];
    if (!std::isfinite(cell.accuracy) || cell.accuracy < 0.0 ||
        cell.accuracy > 1.0)
      return "cell " + cell.defense + "/" + cell.attack + " accuracy " +
             format("%g out of [0, 1]", cell.accuracy);
    by_defense[cell.defense].push_back(cell.accuracy);
  }
  for (const std::string& defense : defenses)
    for (const std::string& attack : attacks)
      for (const std::uint64_t seed : seeds) {
        const auto it = seen.find({defense, attack, seed});
        const int count = it == seen.end() ? 0 : it->second;
        if (count != 1)
          return "cell " + defense + "/" + attack + "/" +
                 std::to_string(seed) + " present " +
                 std::to_string(count) + " times";
      }
  if (seen.size() != defenses.size() * attacks.size() * seeds.size())
    return "matrix holds cells outside its defense x attack x seed grid";
  for (const std::string& defense : defenses) {
    const double m = median(by_defense[defense]);
    if (defense == "mean" ? !(m < floor) : !(m > floor))
      return "defense " + defense + " median accuracy " +
             format("%g on the wrong side of the floor %g", m, floor);
  }
  return "";
}

std::string check_broadcast(const std::vector<float>& broadcast,
                            const std::vector<std::vector<float>>& uploads,
                            const std::string& encoding) {
  if (uploads.empty()) return "no uploads";
  const std::size_t d = uploads.front().size();
  if (broadcast.size() != d) return "broadcast dimension mismatch";
  for (const auto& u : uploads)
    if (u.size() != d) return "upload dimension mismatch";
  const bool fp16 = encoding == "fp16";
  const bool int8 = encoding == "int8";
  if (!fp16 && !int8 && encoding != "f32")
    return "unknown encoding " + encoding;
  constexpr std::size_t kBlock = 64;
  for (std::size_t begin = 0; begin < d; begin += kBlock) {
    const std::size_t end = std::min(begin + kBlock, d);
    double block_max = 0.0;
    std::vector<double> mean(end - begin), magnitude(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      double sum = 0.0, abs_sum = 0.0;
      for (const auto& u : uploads) {
        sum += u[j];
        abs_sum += std::abs(double(u[j]));
      }
      mean[j - begin] = sum / double(uploads.size());
      magnitude[j - begin] = abs_sum;
      block_max = std::max(block_max, std::abs(mean[j - begin]));
    }
    for (std::size_t j = begin; j < end; ++j) {
      const double m = mean[j - begin];
      // float32 rounding of a short sum and one division.
      double tol = std::ldexp(magnitude[j - begin], -21) + 1e-30;
      if (fp16) tol += std::ldexp(std::abs(m), -11) + std::ldexp(1.0, -25);
      if (int8) tol += 0.5 * block_max / 127.0 * (1.0 + 1e-5);
      const double x = broadcast[j];
      if (!(std::abs(x - m) <= tol))
        return encoding + format(" broadcast coordinate %zu = %.9g, mean of "
                                 "uploads %.9g (tolerance %g)",
                                 j, x, m, tol);
    }
  }
  return "";
}

std::string check_wire_faults(std::uint64_t corrupt_frames,
                              std::uint64_t dropped_sends,
                              std::uint64_t evictions) {
  if (corrupt_frames == 0 && dropped_sends == 0 && evictions == 0) return "";
  return format("%llu corrupt frames, %llu dropped sends, %llu evictions",
                (unsigned long long)corrupt_frames,
                (unsigned long long)dropped_sends,
                (unsigned long long)evictions);
}

}  // namespace perfbench
