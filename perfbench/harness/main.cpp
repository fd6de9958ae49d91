// fedms_perfbench — the benchmark harness. perfbench/run.py builds it and
// runs one workload per invocation:
//
//   fedms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   fedms_perfbench --self-test
//
// A run prints one JSON object on stdout: the verdict of every correctness
// check, operations attempted and failed, the end-to-end metrics (or,
// traced, every per-layer metric), the raw per-round samples and the
// workload's make-up.
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "fl/aggregators.h"
#include "fl/wire_encoding.h"
#include "workloads.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Every per-layer metric a traced run prints, with its unit. A layer the
// workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"nn.step_ms", "ms"},
    {"nn.steps", "count"},
    {"nn.evaluate_s", "s"},
    {"nn.param_io_s", "s"},
    {"nn.stem_conv.fwd_us", "us"},
    {"nn.stem_conv.bwd_us", "us"},
    {"nn.conv1x1.fwd_us", "us"},
    {"nn.conv1x1.bwd_us", "us"},
    {"nn.depthwise.fwd_us", "us"},
    {"nn.depthwise.bwd_us", "us"},
    {"nn.batchnorm.fwd_us", "us"},
    {"nn.batchnorm.bwd_us", "us"},
    {"nn.relu6.fwd_us", "us"},
    {"nn.relu6.bwd_us", "us"},
    {"nn.head.fwd_us", "us"},
    {"nn.head.bwd_us", "us"},
    {"nn.loss_us", "us"},
    {"nn.sgd_update_us", "us"},
    {"stage.local_training_s", "s"},
    {"stage.upload_s", "s"},
    {"stage.aggregation_s", "s"},
    {"stage.dissemination_s", "s"},
    {"stage.filter_s", "s"},
    {"stage.unaccounted_s", "s"},
    {"fl.filter.trmean_us", "us"},
    {"fl.filter.mean_us", "us"},
    {"fl.filter.median_us", "us"},
    {"fl.filter.krum_us", "us"},
    {"fl.filter.multikrum_us", "us"},
    {"fl.filter.geomedian_us", "us"},
    {"fl.filter.adaptive_us", "us"},
    {"fl.filter.fedgreed_us", "us"},
    {"fl.aggregate_round_us", "us"},
    {"byz.disseminate_us", "us"},
    {"net.message_us", "us"},
    {"net.messages", "count"},
    {"data.make_workload_s", "s"},
    {"scenario.cell_s", "s"},
    {"scenario.cells", "count"},
    {"transport.crc32c_mb_per_s", "MB/s"},
    {"transport.frame_encode_mb_per_s", "MB/s"},
    {"transport.frame_decode_mb_per_s", "MB/s"},
    {"fl.wire.f32.encode_mb_per_s", "MB/s"},
    {"fl.wire.f32.decode_mb_per_s", "MB/s"},
    {"fl.wire.fp16.encode_mb_per_s", "MB/s"},
    {"fl.wire.fp16.decode_mb_per_s", "MB/s"},
    {"fl.wire.int8.encode_mb_per_s", "MB/s"},
    {"fl.wire.int8.decode_mb_per_s", "MB/s"},
    {"eventloop.ps_service_s", "s"},
    {"eventloop.upload_write_s", "s"},
    {"eventloop.broadcast_read_s", "s"},
    {"eventloop.frames", "count"},
    {"obs.tracing_overhead_s", "s"},
};

void print_report(const std::string& workload, const RunOptions& options,
                  const Report& report, const LayerValues& layers) {
  std::string out = "{\"workload\": \"" + json_escape(workload) + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"correct\": " +
         std::string(report.correct && report.failures.empty() ? "true"
                                                               : "false");
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  const auto number = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
    return std::string(buffer);
  };
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(value) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (options.trace) {
    std::vector<std::string> not_entered;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      if (it == layers.end()) not_entered.push_back(name);
      emit(name, it == layers.end() ? 0.0 : it->second, unit);
    }
    out += "}, \"not_entered\": [";
    for (std::size_t i = 0; i < not_entered.size(); ++i)
      out += (i ? ", \"" : "\"") + not_entered[i] + "\"";
    out += "]";
  } else {
    for (const Metric& m : report.metrics) emit(m.name, m.value, m.unit);
    out += "}";
  }
  const auto strings = [&](const char* key,
                           const std::vector<std::string>& values) {
    out += std::string(", \"") + key + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i ? ", \"" : "\"") + json_escape(values[i]) + "\"";
    out += "]";
  };
  // One verdict per distinct check; sessions repeat them.
  std::vector<std::string> checks = report.checks;
  std::sort(checks.begin(), checks.end());
  checks.erase(std::unique(checks.begin(), checks.end()), checks.end());
  strings("checks", checks);
  strings("failures", report.failures);
  out += ", \"workload_info\": {";
  first = true;
  for (const auto& [key, value] : report.info) {
    out += (first ? "\"" : ", \"") + json_escape(key) + "\": \"" +
           json_escape(value) + "\"";
    first = false;
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [key, values] : report.samples) {
    out += (first ? "\"" : ", \"") + key + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i ? ", " : "") + number(values[i]);
    out += "]";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

// ---- self-test: every check must reject its planted bad input ----

struct SelfTest {
  int failures = 0;
  void expect(const std::string& name, bool rejected,
              const std::string& reason) {
    std::printf("%-58s %s%s\n", name.c_str(),
                rejected ? "rejected: " : "NOT REJECTED",
                rejected ? reason.c_str() : "");
    if (!rejected) ++failures;
  }
  void control(const std::string& name, const std::string& reason) {
    std::printf("%-58s %s%s\n", name.c_str(),
                reason.empty() ? "accepted" : "WRONGLY REJECTED: ",
                reason.c_str());
    if (!reason.empty()) ++failures;
  }
};

// One paper-table2 session with a planted change; returns the reason the
// named check gave, "" when it passed.
std::string planted_session(SyncSpec spec, const std::string& check) {
  spec.fed.seed = 7;
  Report report;
  SyncTrace trace;
  run_sync_session(spec, false, report, trace);
  for (const std::string& failure : report.failures)
    if (failure.rfind(spec.name + " " + check, 0) == 0) return failure;
  return "";
}

int self_test() {
  SelfTest t;
  const SyncSpec table2 = paper_table2_spec(7);
  t.control("paper-table2 as benchmarked", planted_session(table2, ""));

  SyncSpec mean = table2;
  mean.fed.client_filter = "mean";
  std::string e = planted_session(mean, "envelope");
  t.expect("envelope: paper-table2 with filter mean", !e.empty(), e);

  SyncSpec full = table2;
  full.fed.upload = "full";
  e = planted_session(full, "upload cost");
  t.expect("upload cost: paper-table2 with upload full", !e.empty(), e);

  SyncSpec frozen = table2;
  frozen.workload.learning_rate = 1e-9;
  e = planted_session(frozen, "accuracy");
  t.expect("accuracy: paper-table2 with learning rate 1e-9", !e.empty(), e);

  t.control("training health: falling loss",
            check_training_health({2.0, 1.5, 1.0}));
  e = check_training_health({2.0, NAN, 1.0});
  t.expect("training health: a NaN loss", !e.empty(), e);
  e = check_training_health({1.0, 1.2, 1.5});
  t.expect("training health: rising loss", !e.empty(), e);

  // A full grid of plausible outcomes, then one fault planted at a time.
  const std::vector<std::string> defenses = fl::default_defense_zoo(5, 1);
  const std::vector<std::string> attacks = {"noise", "signflip"};
  const std::vector<std::uint64_t> seeds = {1, 2};
  std::vector<CellOutcome> grid;
  for (const auto& d : defenses)
    for (const auto& a : attacks)
      for (const auto s : seeds)
        grid.push_back({d, a, s, d == "mean" ? 0.2 : 0.8});
  t.control("defense-matrix: a healthy grid",
            check_matrix(grid, defenses, attacks, seeds, kMatrixFloor));
  auto planted = grid;
  planted.pop_back();
  e = check_matrix(planted, defenses, attacks, seeds, kMatrixFloor);
  t.expect("defense-matrix: one cell missing", !e.empty(), e);
  planted = grid;
  planted.push_back(grid.front());
  e = check_matrix(planted, defenses, attacks, seeds, kMatrixFloor);
  t.expect("defense-matrix: one cell twice", !e.empty(), e);
  planted = grid;
  for (auto& cell : planted)
    if (cell.defense == "median") cell.accuracy = 0.3;
  e = check_matrix(planted, defenses, attacks, seeds, kMatrixFloor);
  t.expect("defense-matrix: a robust defense below the floor", !e.empty(), e);
  planted = grid;
  for (auto& cell : planted)
    if (cell.defense == "mean") cell.accuracy = 0.7;
  e = check_matrix(planted, defenses, attacks, seeds, kMatrixFloor);
  t.expect("defense-matrix: undefended mean above the floor", !e.empty(), e);

  // ps-wire: the PS's mean of three uploads, through each encoding, then
  // one coordinate nudged past the encoding's tolerance.
  core::Rng rng(11);
  std::vector<std::vector<float>> uploads(3, std::vector<float>(4096));
  for (auto& u : uploads)
    for (float& v : u) v = float(rng.uniform(-1.0, 1.0));
  const std::vector<float> mean_model = fl::mean_aggregate(uploads);
  for (const char* name : {"f32", "fp16", "int8"}) {
    fl::WireEncodingSpec spec;
    fl::parse_wire_encoding(name, &spec);
    std::vector<float> broadcast = mean_model;
    if (!spec.is_f32()) broadcast = fl::WireChannel(spec).encode(mean_model).decoded;
    t.control(std::string("ps-wire: ") + name + " broadcast",
              check_broadcast(broadcast, uploads, name));
    const float step = spec.base == "int8"   ? 0.02f
                       : spec.base == "fp16" ? 2e-3f
                                             : 1e-5f;
    broadcast[1234] += step;
    e = check_broadcast(broadcast, uploads, name);
    t.expect(std::string("ps-wire: ") + name + " broadcast, one coordinate off",
             !e.empty(), e);
  }
  t.control("ps-wire: clean endpoint", check_wire_faults(0, 0, 0));
  e = check_wire_faults(1, 0, 0);
  t.expect("ps-wire: one corrupt frame", !e.empty(), e);

  std::printf("self-test: %s\n", t.failures == 0 ? "ok" : "FAILED");
  return t.failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: fedms_perfbench --workload <mobilenet-train|"
               "paper-table2|defense-matrix|ps-wire> --seed <n> --seconds "
               "<s> --trace <0|1>\n       fedms_perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();
  // A peer that dies mid-write must surface as an error, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);
  ::mkdir(".bench_build", 0755);

  Report report;
  LayerValues layers;
  try {
    if (workload == "mobilenet-train") {
      run_sync_workload(mobilenet_train_spec(options.seed), options, report,
                        layers);
    } else if (workload == "paper-table2") {
      run_sync_workload(paper_table2_spec(options.seed), options, report,
                        layers);
    } else if (workload == "defense-matrix") {
      run_defense_matrix(options, report, layers);
    } else if (workload == "ps-wire") {
      run_ps_wire(options, report, layers);
    } else {
      return usage();
    }
    if (options.trace) replay_fixed_layers(options.seed, layers);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fedms_perfbench: %s\n", error.what());
    return 1;
  }
  for (const std::string& failure : report.failures)
    std::fprintf(stderr, "fedms_perfbench: %s\n", failure.c_str());
  print_report(workload, options, report, layers);
  return 0;
}
