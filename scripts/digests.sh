#!/usr/bin/env sh
# The figure outputs that every neighbor table, ID assignment, key and
# multicast session feeds into, regenerated with EXPERIMENTS.md's commands
# (default arguments; fig12 at --runs 5), ~105 s on a 2-core VM:
#
#   join_cost             §3.1 join cost as groups grow by joins
#   fig13                 per-user rekey cost after a 1 024-user group's
#                         churn interval
#   fig06 … fig11, fig14  T-mesh multicast sessions: delay, stress, RDP,
#                         link stress and the failure sweep
#   ablation_gnp          multicast on the GNP-estimated substrate
#   concurrent_transport  rekey and data traffic sharing egress links
#   ablation_loss         the split transport under per-copy loss, and
#                         its unicast recovery
#   ablation_packet_split what the split transport delivers, charged at
#                         packet granularity
#   ablation_k            the neighbor-table capacity K (§2.2): surviving
#                         primaries after failures against memory
#   fig12 --runs 5        rekey cost against (J, L) on the three key trees
#
#   scripts/digests.sh            # rewrite results/<bin>.tsv (stdout) and
#                                 # results/<bin>.log (stderr)
#   scripts/digests.sh --check    # regenerate into a temporary directory,
#                                 # diff -u against results/, and exit 1
#                                 # naming every file that differs
#
# results/ is the one record of these outputs; no log carries wall-clock
# time, so both files of every output are compared. A change that is meant
# to leave every table, ID, key and session as it was must pass --check. A
# change that moves them on purpose re-records results/ (scripts/digests.sh),
# says so, and rewrites the EXPERIMENTS.md numbers that moved.
set -eu

cd "$(dirname "$0")/.."

bins="join_cost fig13 fig06 fig07 fig08 fig09 fig10 fig11 fig14 ablation_gnp concurrent_transport
ablation_loss ablation_packet_split ablation_k fig12"
# shellcheck disable=SC2046 # one --bin flag per name
cargo build --offline --release -q -p rekey-bench $(printf -- '--bin %s ' $bins)

if [ "${1:-}" = --check ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
else
    out=results
fi
for bin in $bins; do
    case $bin in
        fig12) args="--runs 5" ;;
        *) args= ;;
    esac
    # shellcheck disable=SC2086 # $args is zero or more words
    "target/release/$bin" $args > "$out/$bin.tsv" 2> "$out/$bin.log"
done
[ "$out" = results ] && exit

status=0
for bin in $bins; do
    for file in "$bin.tsv" "$bin.log"; do
        if ! diff -u "results/$file" "$out/$file" > "$out/diff"; then
            head -n 40 "$out/diff"
            echo "digests.sh: results/$file differs from a fresh run"
            status=1
        fi
    done
done
exit $status
