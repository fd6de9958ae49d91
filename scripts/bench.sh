#!/usr/bin/env bash
# Kernel/aggregator benchmark harness. Builds a Release tree, runs
#   * bench/micro_gemm        — blocked GEMM GFLOP/s vs the seed ikj loop,
#   * bench/micro_aggregators — trimmed-mean throughput (blocked streaming
#                               path vs the sort-based reference),
#   * bench/micro_training    — local SGD steps/s per model (the number the
#                               tracing layer must not regress),
#   * bench/micro_obs         — per-record cost of the obs layer (disabled
#                               spans are the always-on tax),
#   * bench/soak              — >= 10k clients through full protocol rounds
#                               against one event-loop PS process,
#   * bench/sweep_throughput  — scenario-sweep cells sequential vs packed
#                               across the thread pool,
#   * tools/fedms_sim         — wall-clock per federated round,
# and merges everything into one JSON report (default: repo/BENCH_PR<N>.json
# with N from --pr or FEDMS_BENCH_PR, currently 8). When a recent PR's
# report exists next to it, the merge step records the per-round delta
# against it so perf regressions show up in the report itself.
#
# PR 8 additions: the soak also runs under --wire-encoding int8 and
# topk:0.25 (bytes/round + MB/s vs the f32 baseline soak; the report
# asserts >= 3x byte reduction for both), and a mobilenet 8x4 simulator
# sweep records final accuracy per wire encoding (asserted within 1% of
# the f32 baseline on the full run).
#
#   scripts/bench.sh            # full budgets
#   scripts/bench.sh --quick    # tiny budgets (CI sanity / check.sh)
#   scripts/bench.sh --pr 5     # write BENCH_PR5.json
#
# Env: FEDMS_BENCH_OUT overrides the output path, FEDMS_BENCH_PR the PR
# number.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$repo/build-bench"
jobs="$(nproc 2>/dev/null || echo 4)"

quick=0
pr="${FEDMS_BENCH_PR:-8}"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --pr) pr="$2"; shift ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done
out="${FEDMS_BENCH_OUT:-$repo/BENCH_PR${pr}.json}"
# Not every PR ships a bench report; fall back one more step so the delta
# still lands against the most recent committed baseline.
baseline="$repo/BENCH_PR$((pr - 1)).json"
[[ -f "$baseline" ]] || baseline="$repo/BENCH_PR$((pr - 2)).json"

echo "== configure + build (Release, bench targets) =="
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
  -DFEDMS_BUILD_TESTS=OFF -DFEDMS_BUILD_EXAMPLES=OFF -DFEDMS_BUILD_BENCH=ON
cmake --build "$build" -j "$jobs" --target micro_gemm micro_aggregators \
  micro_training micro_obs soak sweep_throughput fedms_sim

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== micro_gemm =="
gemm_flags=()
[[ $quick -eq 1 ]] && gemm_flags+=(--quick)
"$build/bench/micro_gemm" "${gemm_flags[@]}" > "$tmp/gemm.json"

echo "== micro_aggregators (trimmed mean) =="
agg_flags=(--benchmark_filter='TrimmedMean'
           --benchmark_format=json
           --benchmark_out="$tmp/aggregators.json"
           --benchmark_out_format=json)
[[ $quick -eq 1 ]] && agg_flags+=(--benchmark_min_time=0.05)
"$build/bench/micro_aggregators" "${agg_flags[@]}" > /dev/null

echo "== micro_training (local SGD steps/s) =="
train_flags=(--benchmark_filter='LocalStep'
             --benchmark_format=json
             --benchmark_out="$tmp/training.json"
             --benchmark_out_format=json)
[[ $quick -eq 1 ]] && train_flags+=(--benchmark_min_time=0.05)
"$build/bench/micro_training" "${train_flags[@]}" > /dev/null

echo "== micro_obs (tracing layer per-record cost) =="
obs_flags=()
[[ $quick -eq 1 ]] && obs_flags+=(--quick)
"$build/bench/micro_obs" "${obs_flags[@]}" > "$tmp/obs.json"

echo "== soak (event-loop server, full protocol rounds) =="
# The full run needs ~2 fds per client split across two processes; the
# bench probes RLIMIT_NOFILE itself and fails with the `ulimit -n` remedy
# when the budget is short.
soak_flags=(--clients 10000 --dim 1024 --rounds 3)
[[ $quick -eq 1 ]] && soak_flags=(--quick)
"$build/bench/soak" "${soak_flags[@]}" > "$tmp/soak.json"

echo "== soak under compressed wire encodings (int8, topk:0.25) =="
# Same swarm, lossy wire paths; the merge step computes bytes/round and
# MB/s against the f32 soak above and asserts the >= 3x byte reduction.
"$build/bench/soak" "${soak_flags[@]}" --wire-encoding int8 \
  > "$tmp/soak-int8.json"
"$build/bench/soak" "${soak_flags[@]}" --wire-encoding topk:0.25 \
  > "$tmp/soak-topk.json"

echo "== mobilenet 8x4 final accuracy per wire encoding =="
acc_rounds=8
acc_samples=400
[[ $quick -eq 1 ]] && { acc_rounds=2; acc_samples=200; }
: > "$tmp/wire-accuracy.txt"
for enc in f32 fp16 int8 topk:0.25 delta+int8; do
  "$build/tools/fedms_sim" --model mobilenet --clients 8 --servers 4 \
    --byzantine 1 --rounds "$acc_rounds" --samples "$acc_samples" \
    --eval-every "$acc_rounds" --wire-encoding "$enc" \
    | grep '# final accuracy:' | sed "s|^|$enc |" \
    >> "$tmp/wire-accuracy.txt"
done

echo "== sweep_throughput (batched scenario cells) =="
sweep_flags=()
[[ $quick -eq 1 ]] && sweep_flags+=(--quick)
"$build/bench/sweep_throughput" "${sweep_flags[@]}" > "$tmp/sweep.json"

echo "== fedms_sim per-round wall time =="
rounds=8
runs=3
[[ $quick -eq 1 ]] && { rounds=2; runs=1; }
# Best-of-N: the first run after a build pays page-cache/frequency-ramp
# costs that have nothing to do with the code under test; the minimum is
# the stable per-round figure.
sim_seconds="$(SIM="$build/tools/fedms_sim" ROUNDS="$rounds" RUNS="$runs" \
python3 - <<'PY'
import os, subprocess, time
cmd = [os.environ["SIM"], "--model", "mobilenet", "--clients", "8",
       "--servers", "4", "--byzantine", "1",
       "--rounds", os.environ["ROUNDS"],
       "--samples", "400", "--eval-every", "1000"]
best = None
for _ in range(int(os.environ["RUNS"])):
    t0 = time.monotonic()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    dt = time.monotonic() - t0
    best = dt if best is None else min(best, dt)
print(best)
PY
)"

echo "== merge -> $out =="
GEMM_JSON="$tmp/gemm.json" AGG_JSON="$tmp/aggregators.json" \
TRAIN_JSON="$tmp/training.json" OBS_JSON="$tmp/obs.json" \
SOAK_JSON="$tmp/soak.json" SWEEP_JSON="$tmp/sweep.json" \
SOAK_INT8_JSON="$tmp/soak-int8.json" SOAK_TOPK_JSON="$tmp/soak-topk.json" \
WIRE_ACC_TXT="$tmp/wire-accuracy.txt" \
SIM_SECONDS="$sim_seconds" SIM_ROUNDS="$rounds" \
QUICK="$quick" OUT="$out" PR="$pr" BASELINE="$baseline" python3 - <<'PY'
import json, os

gemm = json.load(open(os.environ["GEMM_JSON"]))
agg = json.load(open(os.environ["AGG_JSON"]))
train = json.load(open(os.environ["TRAIN_JSON"]))
obs = json.load(open(os.environ["OBS_JSON"]))
soak = json.load(open(os.environ["SOAK_JSON"]))["soak"]
sweep = json.load(open(os.environ["SWEEP_JSON"]))["sweep_throughput"]
quick = bool(int(os.environ["QUICK"]))

# PR 8: compressed-wire soak runs vs the f32 baseline soak.
wire_soak = {"f32": soak}
for key, env in (("int8", "SOAK_INT8_JSON"), ("topk:0.25", "SOAK_TOPK_JSON")):
    wire_soak[key] = json.load(open(os.environ[env]))["soak"]
wire_encodings = {"soak": {}}
f32_bytes = wire_soak["f32"]["data_bytes_per_round"]
for key, run in wire_soak.items():
    reduction = f32_bytes / run["data_bytes_per_round"]
    wire_encodings["soak"][key] = {
        "data_bytes_per_round": run["data_bytes_per_round"],
        "rounds_per_second": run["rounds_per_second"],
        "mb_per_second": round(run["bytes_per_second"] / 1e6, 2),
        "reduction_vs_f32": round(reduction, 2),
    }
    assert run["wire_encoding"] == key, (key, run["wire_encoding"])
    if key != "f32":
        # The compressed wire path's reason to exist; quick mode keeps a
        # soft floor (tiny payloads are header-dominated).
        floor = 2.0 if quick else 3.0
        assert reduction >= floor, (
            f"{key} soak byte reduction {reduction:.2f}x fell below "
            f"{floor:.0f}x vs f32")

# Mobilenet 8x4 final accuracy per wire encoding (lines like
# "int8 # final accuracy: mean 0.1300 ...").
wire_encodings["accuracy"] = {}
for line in open(os.environ["WIRE_ACC_TXT"]):
    enc = line.split()[0]
    mean = float(line.split("mean")[1].split()[0])
    wire_encodings["accuracy"][enc] = {"final_accuracy": mean}
f32_acc = wire_encodings["accuracy"]["f32"]["final_accuracy"]
for enc, entry in wire_encodings["accuracy"].items():
    delta = entry["final_accuracy"] - f32_acc
    entry["delta_vs_f32"] = round(delta, 4)
    if not quick:
        assert abs(delta) <= 0.01, (
            f"{enc} final accuracy drifted {delta:+.4f} from the f32 "
            "baseline on mobilenet 8x4 (budget: 1%)")

def series(report):
    rows = []
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rows.append({
            "name": b["name"],
            "cpu_time_ns": b.get("cpu_time"),
            # items/s: coordinates for the aggregators, SGD steps for the
            # training loops
            "items_per_second": b.get("items_per_second"),
        })
    return rows

seconds = float(os.environ["SIM_SECONDS"])
rounds = int(os.environ["SIM_ROUNDS"])
report = {
    "bench": f"PR{os.environ['PR']}",
    "quick": bool(int(os.environ["QUICK"])),
    "gemm": gemm["gemm"],
    "trimmed_mean": series(agg),
    "training": series(train),
    "obs": obs["obs"],
    "soak": soak,
    "wire_encodings": wire_encodings,
    "sweep_throughput": sweep,
    "per_round": {
        "model": "mobilenet",
        "clients": 8,
        "servers": 4,
        "rounds": rounds,
        "total_seconds": round(seconds, 4),
        "seconds_per_round": round(seconds / rounds, 4),
    },
}

# Delta vs the previous PR's report, where comparable series exist. The
# tracing layer ships disabled, so per-round time and training steps/s must
# hold within noise (<2%).
base_path = os.environ["BASELINE"]
if os.path.exists(base_path):
    base = json.load(open(base_path))
    deltas = {"baseline": os.path.basename(base_path)}
    if "per_round" in base:
        prev = base["per_round"]["seconds_per_round"]
        cur = report["per_round"]["seconds_per_round"]
        deltas["seconds_per_round_change"] = round(cur / prev - 1.0, 4)
    if base.get("training"):
        prev_steps = {b["name"]: b["items_per_second"]
                      for b in base["training"]}
        changes = {}
        for b in report["training"]:
            if b["name"] in prev_steps and prev_steps[b["name"]]:
                changes[b["name"]] = round(
                    b["items_per_second"] / prev_steps[b["name"]] - 1.0, 4)
        if changes:
            deltas["training_steps_change"] = changes
    report["vs_previous"] = deltas

with open(os.environ["OUT"], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {os.environ['OUT']}")
for shape in report["gemm"]:
    print(f"  gemm {shape['tag']}: {shape['blocked_gflops']:.1f} GFLOP/s "
          f"({shape['speedup']:.2f}x vs seed ikj)")
for b in report["training"]:
    print(f"  {b['name']}: {b['items_per_second']:.0f} steps/s")
print(f"  obs span disabled/enabled: {report['obs']['span_disabled_ns']}"
      f" / {report['obs']['span_enabled_ns']} ns")
print(f"  soak: {soak['clients']} clients, "
      f"{soak['rounds_per_second']:.3f} rounds/s, "
      f"{soak['bytes_per_second'] / 1e6:.1f} MB/s, p99 aggregation "
      f"{soak['p99_ms']['aggregation']:.0f} ms")
for enc, row in wire_encodings["soak"].items():
    if enc == "f32":
        continue
    print(f"  soak wire {enc}: {row['data_bytes_per_round']} B/round, "
          f"{row['reduction_vs_f32']:.2f}x fewer bytes than f32")
accs = wire_encodings["accuracy"]
print("  mobilenet 8x4 accuracy vs f32: " + ", ".join(
    f"{enc} {entry['delta_vs_f32']:+.4f}"
    for enc, entry in accs.items() if enc != "f32"))
print(f"  sweep: {sweep['cells']} cells x {sweep['jobs']} jobs, "
      f"{sweep['scenarios_per_hour']:.0f} scenarios/h, "
      f"{sweep['speedup']:.2f}x vs sequential")
print(f"  per round: {report['per_round']['seconds_per_round']:.3f} s")
if "vs_previous" in report:
    change = report["vs_previous"].get("seconds_per_round_change")
    if change is not None:
        print(f"  per-round vs {report['vs_previous']['baseline']}: "
              f"{change:+.1%}")
PY

echo "== bench done =="
