#!/usr/bin/env sh
# Digests of the figure outputs that every neighbor table, ID assignment,
# key and multicast session feeds into, reproducibly (all with default
# arguments, ~36 s on a 2-core VM):
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
#
#   scripts/digests.sh            # one "md5  name" line per output
#   scripts/digests.sh --check    # the same, and exit 1 if they differ from
#                                 # scripts/digests.baseline
#
# A change that is meant to leave every table, ID, key and session as it
# was must pass --check. A change that moves them on purpose re-records the
# baseline (scripts/digests.sh > scripts/digests.baseline) and says so.
set -eu

cd "$(dirname "$0")/.."

bins="join_cost fig13 fig06 fig07 fig08 fig09 fig10 fig11 fig14 ablation_gnp concurrent_transport
ablation_loss ablation_packet_split ablation_k"
# shellcheck disable=SC2046 # one --bin flag per name
cargo build --offline --release -q -p rekey-bench $(printf -- '--bin %s ' $bins)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
digests=$(
    for bin in $bins; do
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
