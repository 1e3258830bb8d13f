#!/usr/bin/env sh
# Digests of two outputs that every neighbor table, ID assignment and key
# of a growing group feeds into, reproducibly:
#
#   join_cost   stdout of `join_cost` (defaults): §3.1 join cost as groups
#               grow by joins
#   fig13       stdout of `fig13` (defaults): per-user rekey cost after a
#               1 024-user group's churn interval
#
#   scripts/digests.sh            # one "md5  name" line per output
#   scripts/digests.sh --check    # the same, and exit 1 if they differ from
#                                 # scripts/digests.baseline
#
# A change that is meant to leave every table, ID and key as it was must
# pass --check. A change that moves them on purpose re-records the baseline
# (scripts/digests.sh > scripts/digests.baseline) and says so.
set -eu

cd "$(dirname "$0")/.."

cargo build --offline --release -q -p rekey-bench --bin join_cost --bin fig13
out=$(mktemp)
trap 'rm -f "$out"' EXIT
digests=$(
    for bin in join_cost fig13; do
        "target/release/$bin" > "$out" 2> /dev/null
        printf '%s  %s\n' "$(md5sum < "$out" | cut -d' ' -f1)" "$bin"
    done
)
echo "$digests"

if [ "${1:-}" = --check ]; then
    if ! echo "$digests" | diff -u scripts/digests.baseline -; then
        echo "digests.sh: outputs differ from scripts/digests.baseline"
        exit 1
    fi
fi
