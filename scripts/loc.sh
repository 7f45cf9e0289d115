#!/usr/bin/env bash
# Non-test library lines under crates/*/src, per crate and in total.
#
# Counted: every .rs file under crates/<crate>/src except crates/bench
# (the figure binaries). Not counted: any `#[cfg(test)]` item — one that
# fits on its line (ending in `;` or `}`), or a block from its first line
# to the closing line at that line's indentation, as rustfmt lays it out
# — with the doc comments and attributes directly above it, and the file
# a `#[cfg(test)] mod name;` declaration pulls in.
#
# Prints `crate all non_blank` lines and a `total` line. Run from
# anywhere: `scripts/loc.sh` (or `scripts/loc.sh path/to/repo`).
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# The files a `#[cfg(test)] mod name;` declaration compiles only under test.
test_files() {
    local file dir name
    for file in "$@"; do
        case "$(basename "$file")" in
            lib.rs | main.rs | mod.rs) dir="$(dirname "$file")" ;;
            *) dir="${file%.rs}" ;;
        esac
        awk '/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cfg = 1; next }
             cfg && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
                 sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, ""); sub(/;.*/, ""); print
             }
             { cfg = 0 }' "$file" |
            while read -r name; do
                for f in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                    [ -f "$f" ] && echo "$f"
                done
            done
    done
}

# `all non_blank` for the given files, `#[cfg(test)]` items cut.
count() {
    awk '
        FNR == 1 { flush(); cfg = 0; skip = 0 }
        skip {
            if ($0 ~ close_re) skip = 0
            next
        }
        # Doc comments and attributes wait for the item they are on.
        /^[[:space:]]*(\/\/\/|#\[)/ {
            held[n++] = $0
            if ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) cfg = 1
            next
        }
        cfg {
            n = 0; cfg = 0
            if ($0 !~ /[;}][[:space:]]*$/) {
                indent = $0; sub(/[^[:space:]].*$/, "", indent)
                close_re = "^" indent "[])}]+;?[[:space:]]*$"
                skip = 1
            }
            next
        }
        { flush(); tally($0) }
        END { flush(); printf "%d %d\n", all, nonblank }
        function tally(line) { all++; if (line ~ /[^[:space:]]/) nonblank++ }
        function flush(   i) { for (i = 0; i < n; i++) tally(held[i]); n = 0 }
    ' "$@"
}

total_all=0
total_nonblank=0
printf '%-12s %8s %10s\n' crate all non_blank
for crate in crates/*/; do
    name="$(basename "$crate")"
    [ "$name" = bench ] && continue
    [ -d "$crate/src" ] || continue
    mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
    mapfile -t skipped < <(test_files "${files[@]}" | sort -u)
    kept=()
    for f in "${files[@]}"; do
        printf '%s\n' "${skipped[@]}" | grep -qxF "$f" || kept+=("$f")
    done
    read -r all nonblank < <(count "${kept[@]}")
    printf '%-12s %8d %10d\n' "$name" "$all" "$nonblank"
    total_all=$((total_all + all))
    total_nonblank=$((total_nonblank + nonblank))
done
printf '%-12s %8d %10d\n' total "$total_all" "$total_nonblank"
