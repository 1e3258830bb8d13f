#!/usr/bin/env sh
# The two tracked size outcomes of ROADMAP aim 2, reproducibly:
#
#   non-test lines  lines before the first `#[cfg(test)]` (or `#![cfg(test)]`)
#                   at column 0 of every .rs file under crates/*/src; a file
#                   that opens with `#![cfg(test)]` is test code throughout
#   public items    `pub fn|struct|enum|trait|type|const|static|mod|use`
#                   declarations in those same lines
#
#   scripts/loc.sh            # the two totals
#   scripts/loc.sh -v         # plus one line per file
#   scripts/loc.sh --check    # the totals, and exit 1 if either is above
#                             # scripts/loc.baseline (two lines: lines, items);
#                             # a PR that lowers one commits the new numbers
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = --check ]; then
    totals=$("$0")
    echo "$totals"
    echo "$totals" | awk -F': *' '
        NR == FNR { allowed[FNR] = $1; next }
        $2 > allowed[FNR] { printf "loc.sh: %s rose above the baseline %d\n", $1, allowed[FNR]; bad = 1 }
        END { exit bad }' scripts/loc.baseline -
    exit
fi

find crates/*/src -name '*.rs' | sort | xargs awk -v verbose="${1:-}" '
    FNR == 1 { in_tests = 0 }
    /^#!?\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
        lines[FILENAME]++
        total_lines++
        if ($0 ~ /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod|use) /) {
            items[FILENAME]++
            total_items++
        }
    }
    END {
        if (verbose == "-v")
            for (f in lines) printf "%6d %4d %s\n", lines[f], items[f], f | "sort -k3"
        close("sort -k3")
        printf "non-test lines under crates/*/src: %d\n", total_lines
        printf "public items in those lines:       %d\n", total_items
    }'
