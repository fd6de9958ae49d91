// Correctness checks the benchmark applies to the program's outputs. Each
// one is computed here, apart from the program: from the method's own
// guarantees (the trimmed mean stays inside the honest envelope), from the
// documented wire format, or from a reference recomputed in double. Every
// check returns "" when it passes and a one-line reason when it does not;
// `--self-test` feeds each one a planted bad input and expects a reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Envelope tolerance, relative to max(1, |lo|, |hi|) per coordinate. The
// trimmed mean sums a column of at most P float32 values and subtracts
// the trimmed tails again, so it can land a few float ulps outside the
// honest [lo, hi]; 1e-5 is ~80 ulps at 1.0.
inline constexpr double kEnvelopeTolerance = 1e-5;

// Every client model lies coordinate-wise within [lo − tol, hi + tol] of
// the benign parameter servers' honest aggregates.
std::string check_envelope(const std::vector<std::vector<float>>& clients,
                           const std::vector<std::vector<float>>& benign);

// Training loss finite in every round and lower in the last than in the
// first.
std::string check_training_health(const std::vector<double>& losses);

// Sparse upload: K uploads plus K·P broadcasts of one raw float32 frame
// each, in every round.
std::string check_upload_cost(const std::vector<std::uint64_t>& per_round,
                              std::uint64_t clients, std::uint64_t servers,
                              std::uint64_t dimension);

std::string check_accuracy(double accuracy, double floor);

// One defense-matrix cell's outcome.
struct CellOutcome {
  std::string defense;
  std::string attack;
  std::uint64_t seed = 0;
  double accuracy = 0.0;
};

// Robust defenses keep their median cell above this accuracy; the
// undefended mean, poisoned by the noise attack from round 7 on, keeps its
// median cell below it. Over cell seeds 1..60 the lowest robust median
// was 0.55 (krum) and the highest mean median 0.31.
inline constexpr double kMatrixFloor = 0.43;

// Every (defense, attack, seed) cell present exactly once with a finite
// accuracy in [0, 1]; the median cell of every robust defense is above
// `floor`, and the median undefended `mean` cell is below it.
std::string check_matrix(const std::vector<CellOutcome>& cells,
                         const std::vector<std::string>& defenses,
                         const std::vector<std::string>& attacks,
                         const std::vector<std::uint64_t>& seeds,
                         double floor);

// A broadcast decoded by one ps-wire connection against the mean of the
// three decoded uploads, recomputed in double. `encoding` is the one the
// connection announced (f32 | fp16 | int8), which sets the tolerance:
// float rounding of a 3-term mean, plus fp16's 2^-11 relative rounding,
// or int8's half a quantization step (block max-abs / 127 / 2 over
// 64-coordinate blocks).
std::string check_broadcast(const std::vector<float>& broadcast,
                            const std::vector<std::vector<float>>& uploads,
                            const std::string& encoding);

// The PS saw no corrupt frame, dropped no send and evicted no reader.
std::string check_wire_faults(std::uint64_t corrupt_frames,
                              std::uint64_t dropped_sends,
                              std::uint64_t evictions);

}  // namespace perfbench
