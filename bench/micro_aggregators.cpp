// Micro-benchmarks (google-benchmark): throughput of the aggregation rules
// and attack application as a function of model dimension d and server
// count P. The trimmed-mean filter runs on every client every round, so its
// O(d · P log P) cost is the client-side overhead Fed-MS adds over vanilla
// FedAvg's O(d · P) mean.

#include <benchmark/benchmark.h>

#include "byz/attacks.h"
#include "core/rng.h"
#include "fl/aggregators.h"

namespace {

using namespace fedms;

std::vector<fl::ModelVector> make_models(std::size_t count,
                                         std::size_t dimension) {
  core::Rng rng(42);
  std::vector<fl::ModelVector> models(count, fl::ModelVector(dimension));
  for (auto& m : models)
    for (auto& v : m) v = static_cast<float>(rng.normal());
  return models;
}

void BM_Mean(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::mean_aggregate(models));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

void BM_TrimmedMean(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::trimmed_mean(models, 0.2));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

// The seed's gather + full-sort implementation: the before/after baseline
// for the blocked-transpose streaming path above.
void BM_TrimmedMeanReference(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::trimmed_mean_reference(models, 0.2));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

void BM_CoordinateMedian(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::coordinate_median(models));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

void BM_Krum(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::krum(models, 2));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

void BM_GeometricMedian(benchmark::State& state) {
  const auto models = make_models(std::size_t(state.range(0)),
                                  std::size_t(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fl::geometric_median(models));
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0) *
                          state.range(1));
}

void BM_AttackApply(benchmark::State& state) {
  const auto models = make_models(1, std::size_t(state.range(0)));
  const auto attack = byz::make_attack("noise");
  core::Rng rng(7);
  byz::AttackContext context;
  context.honest_aggregate = &models.front();
  std::vector<std::vector<float>> history;
  context.history = &history;
  context.initial_model = &models.front();
  for (auto _ : state)
    benchmark::DoNotOptimize(attack->tamper(context, rng));
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}

}  // namespace

// Args: {P (model count), d (dimension)}.
BENCHMARK(BM_Mean)->Args({10, 2410})->Args({10, 100000})->Args({30, 2410});
BENCHMARK(BM_TrimmedMean)
    ->Args({10, 2410})
    ->Args({10, 100000})
    ->Args({30, 2410});
BENCHMARK(BM_TrimmedMeanReference)
    ->Args({10, 2410})
    ->Args({10, 100000})
    ->Args({30, 2410});
BENCHMARK(BM_CoordinateMedian)->Args({10, 2410})->Args({10, 100000});
BENCHMARK(BM_Krum)->Args({10, 2410})->Args({10, 100000});
BENCHMARK(BM_GeometricMedian)->Args({10, 2410})->Args({10, 100000});
BENCHMARK(BM_AttackApply)->Arg(2410)->Arg(100000);

BENCHMARK_MAIN();
