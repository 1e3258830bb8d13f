#!/usr/bin/env bash
# Parent against change on one benchmark workload, in alternating pairs.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs]    # pairs: default 10
#
# Builds the benchmark binary twice, each in its own target directory: at
# <parent-rev> (exported with `git archive` into target/pairs/<sha>/, kept
# for the next call) and from the working tree (bench/target). Pair i runs
# both binaries with seed i (`--seconds 20 --trace 0`); odd pairs run the
# parent first, even pairs the change. The runs' result lines are kept
# under target/pairs/out/<workload>/.
#
# Prints markdown: the two measured trees (the parent's sha, and the
# working tree's HEAD, marked -dirty when `git status --porcelain` lists a
# change outside target/), the host, the q1 / median / q3 table of every end-to-end
# metric BENCHMARK.json names (with its bound and the pairs in which the
# change is better), then one row per pair. Quartiles are inclusive
# (`statistics.quantiles(..., method="inclusive")`). Exits non-zero if a
# build or run fails; the verdicts are for the reader.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}

change=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=all | cut -c4- | grep -v '^target/' || true)" ]; then
    change=$change-dirty
fi

parent_dir=target/pairs/$rev
if [ ! -f "$parent_dir/bench/Cargo.toml" ]; then
    rm -rf "$parent_dir"
    mkdir -p "$parent_dir"
    git archive "$rev" | tar -x -C "$parent_dir"
fi
echo "building the parent (${rev:0:7}) and the working tree" >&2
cargo build --offline --release --quiet --manifest-path "$parent_dir/bench/Cargo.toml"
cargo build --offline --release --quiet --manifest-path bench/Cargo.toml

bin=target/pairs/bin
out=target/pairs/out/$workload
mkdir -p "$bin"
rm -rf "$out"
mkdir -p "$out"
cp "$parent_dir/bench/target/release/rekey-perfbench" "$bin/parent"
cp bench/target/release/rekey-perfbench "$bin/change"

run() { # side seed
    "$bin/$1" --workload "$workload" --seed "$2" --seconds 20 --trace 0 > "$out/$1-$2.log"
    head -n 1 "$out/$1-$2.log" > "$out/host"
    tail -n 1 "$out/$1-$2.log" > "$out/$1-$2.json"
}

for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i: $side" >&2
        run "$side" "$i"
    done
done

python3 - "$out" "$workload" "$pairs" "$rev" "$change" <<'EOF'
import json, re, statistics, sys

out, workload, pairs, rev, change = sys.argv[1:6]
pairs = int(pairs)
spec = json.load(open("BENCHMARK.json"))
runs = {side: [json.load(open("%s/%s-%d.json" % (out, side, i))) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}

def values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def g(x):
    return "%.5g" % x

print("# %s: parent (%s) against change, %d alternating pairs\n" % (workload, rev[:7], pairs))
print("Trees: parent `%s`; change `%s` (the working tree's `git rev-parse HEAD`, "
      "`-dirty` if it had changes outside `target/`).\n" % (rev, change))
# The binary's host line names the commit `bench/build.rs` recorded when it
# last ran, which an incremental build does not refresh.
host = open(out + "/host").read().strip().lstrip("# ")
host = re.sub(r"\bcommit (\S+)", r"`bench/build.rs`'s recorded commit \1 (may be stale)", host)
print("Host: %s. Written by `scripts/pairs.sh %s %s %d`: pair *i* uses seed *i* "
      "(`--seconds 20 --trace 0`), odd pairs run the parent first. \"better\" counts pairs "
      "where the change's figure is better.\n"
      % (host, rev[:7], workload, pairs))
print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | change worse by "
      "| bound | parent IQR/median | verdict |")
print("|---|---|---|---|---|---|---|---|")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p, c = values("parent", name), values("change", name)
    pq, cq = quartiles(p), quartiles(c)
    sign = 1 if lower else -1
    worse = sign * (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    better = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    spread = (pq[2] - pq[0]) / pq[1] * 100 if pq[1] else 0.0
    if p == c:
        verdict = "equal seed for seed"
    elif worse <= m["bound"] * 100:
        verdict = "within bound"
    else:
        verdict = "**worse than bound**"
    print("| %s | %s | %s | %s | %+.1f %% (%d/%d pairs better) | %.0f %% | %.1f %% | %s |"
          % (workload, name, " / ".join(map(g, pq)), " / ".join(map(g, cq)), worse, better,
             pairs, m["bound"] * 100, spread, verdict))

def cells(r):
    v = lambda name: r["metrics"][name]["value"]
    return ("%.1f / %.1f / %.2f / %.4f" % (v("cpu_ms_per_interval"), v("apply_delay_p99_ms"),
                                           v("peak_rss_mb"), v("setup_s")),
            "%s, %d/%d" % (str(r["correct"]).lower(), r["failed"], r["attempted"]))

print("\n| pair (seed) | first | parent cpu ms / p99 ms / RSS MiB / setup s "
      "| parent correct, failed/attempted | change cpu ms / p99 ms / RSS MiB / setup s "
      "| change correct, failed/attempted |")
print("|---|---|---|---|---|---|")
for i in range(pairs):
    print("| %d | %s | %s | %s | %s | %s |"
          % ((i + 1, "parent" if i % 2 == 0 else "change")
             + cells(runs["parent"][i]) + cells(runs["change"][i])))
EOF
