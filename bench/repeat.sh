#!/usr/bin/env bash
# Runs the full benchmark set twice on the same commit and compares the
# two: for every workload, ten end-to-end runs (seeds 1..10) plus one
# traced run, exactly what the acceptance driver does.
#
#   bench/repeat.sh > bench/BASELINE.md      # ~35 min
#
# Prints, as markdown, the host, every end-to-end metric's median, its
# spread over the seeds (interquartile range / median) and the relative
# difference between the two sets beside its bound, then the per-layer
# table. Exits non-zero if a difference or a spread exceeds its bound, if a
# run reports a failed check, or if an exact count of a deterministic
# workload differs between the two sets (same seed, same count).
set -euo pipefail
cd "$(dirname "$0")/.."

out=bench/out/repeat
rm -rf "$out"
mkdir -p "$out"

mapfile -t cmd < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')

run() { # workload seed trace file
    "${cmd[@]}" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" | tail -n 1 > "$4"
}

for set in 1 2; do
    for w in $workloads; do
        for seed in $(seq 10); do
            echo "set $set: $w seed $seed" >&2
            run "$w" "$seed" 0 "$out/set$set-$w-e2e-$seed.json"
        done
        echo "set $set: $w traced" >&2
        run "$w" 1 1 "$out/set$set-$w-layer.json"
    done
done

python3 - "$out" <<'EOF'
import json, statistics, subprocess, sys

out, seeds, sets = sys.argv[1], 10, 2
spec = json.load(open("BENCHMARK.json"))
host = json.load(open("bench/out/result-%s-end-to-end.json" % spec["workloads"][0]["name"]))
status = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True).stdout.strip()

print("# Baseline: two sets of runs of the same commit\n")
print("Written by `bench/repeat.sh` (%d seeds x %d sets per workload, %d s per run). "
      "This issue claims no gain: these are the numbers later issues are measured against.\n"
      % (seeds, sets, spec["run_seconds"]))
print("| field | value |\n|---|---|")
for key in ("nproc", "cpu_model", "kernel", "rustc", "commit"):
    print("| %s | %s |" % (key, host[key]))
print("| working tree | %s |\n" % ("clean" if not status else "commit above plus uncommitted changes (this PR)"))

def load(path):
    return json.load(open(path))

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

bad = []
deterministic = lambda w: w != "udp_loopback"
print("## End-to-end metrics\n")
print("`spread` is (Q3 - Q1) / median over the seeds of one set; `worse by` is how much "
      "the second set's median is worse than the first's (negative: better).\n")
print("| workload | metric | unit | median set 1 | median set 2 | spread 1 | spread 2 | worse by | bound |")
print("|---|---|---|---|---|---|---|---|---|")
for w in (x["name"] for x in spec["workloads"]):
    runs = [[load("%s/set%d-%s-e2e-%d.json" % (out, s, w, seed)) for seed in range(1, seeds + 1)]
            for s in range(1, sets + 1)]
    for s, set_runs in enumerate(runs, 1):
        for seed, r in enumerate(set_runs, 1):
            if not r["correct"] or r["failed"]:
                bad.append("%s set %d seed %d: %d of %d checks failed" % (w, s, seed, r["failed"], r["attempted"]))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for set_runs in runs:
            values = [r["metrics"][name]["value"] for r in set_runs]
            meds.append(statistics.median(values))
            spreads.append(spread(values))
        if m["unit"] == "count" and deterministic(w):
            for seed, (a, b) in enumerate(zip(*[[r["metrics"][name]["value"] for r in set_runs] for set_runs in runs]), 1):
                if a != b:
                    bad.append("%s %s seed %d: exact count differs between sets: %r, %r" % (w, name, seed, a, b))
        worse = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            worse = -worse
        flags = ""
        if worse > bound:
            bad.append("%s %s: second set worse by %.1f %% (bound %.0f %%)" % (w, name, worse * 100, bound * 100))
            flags = " **!**"
        if name != "setup_s" and max(spreads) > bound:
            bad.append("%s %s: spread %.1f %% exceeds bound %.0f %%" % (w, name, max(spreads) * 100, bound * 100))
            flags = " **!**"
        print("| %s | %s | %s | %.6g | %.6g | %.2f %% | %.2f %% | %+.2f %%%s | %.0f %% |" % (
            w, name, m["unit"], meds[0], meds[1], spreads[0] * 100, spreads[1] * 100,
            worse * 100, flags, bound * 100))

print("\n## Per-layer metrics (one traced run per set, seed 1)\n")
print("Counts of the deterministic workloads must be equal in both sets.\n")
print("| metric | unit | " + " | ".join(x["name"] for x in spec["workloads"]) + " |")
print("|---|---|" + "---|" * len(spec["workloads"]))
layer = {w["name"]: [load("%s/set%d-%s-layer.json" % (out, s, w["name"])) for s in range(1, sets + 1)]
         for w in spec["workloads"]}
for m in spec["per_layer"]:
    cells = []
    for w in (x["name"] for x in spec["workloads"]):
        values = [r["metrics"][m["name"]]["value"] for r in layer[w]]
        exact = m["unit"] in ("count", "sim_ms") and deterministic(w)
        if exact and len(set(values)) > 1:
            bad.append("%s %s: exact count differs between sets: %s" % (w, m["name"], values))
        cells.append(" / ".join("%.6g" % v for v in values))
    print("| %s | %s | %s |" % (m["name"], m["unit"], " | ".join(cells)))
for w, results in layer.items():
    for s, r in enumerate(results, 1):
        if not r["correct"]:
            bad.append("%s traced set %d: %d of %d checks failed" % (w, s, r["failed"], r["attempted"]))

print("\n## Verdict\n")
if bad:
    print("NOT within bounds:\n")
    for line in bad:
        print("- " + line)
    sys.exit(1)
print("Every end-to-end metric repeats within its bound on every workload, every spread is "
      "within its bound, every check passed, and every exact count is identical in both sets.")
EOF
