#!/usr/bin/env bash
# Non-test library lines under crates/*/src, per crate and in total.
#
# Counted: every .rs file under crates/<crate>/src except crates/bench
# (the figure binaries). Not counted: a `#[cfg(test)] mod name { … }`
# block (from its attribute to the closing brace at the `mod` line's
# indentation, as rustfmt lays it out), a `#[cfg(test)] mod name;`
# declaration and the file it pulls in.
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

# `all non_blank` for the given files, test module blocks cut.
count() {
    awk '
        skip {
            if ($0 == close_line) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
        held != "" {
            if (match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{[[:space:]]*$/)) {
                indent = $0; sub(/[^[:space:]].*$/, "", indent)
                close_line = indent "}"
                skip = 1; held = ""
                next
            }
            if (match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/)) { held = ""; next }
            all++; if (held ~ /[^[:space:]]/) nonblank++
            held = ""
        }
        { all++; if ($0 ~ /[^[:space:]]/) nonblank++ }
        END { printf "%d %d\n", all, nonblank }
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
