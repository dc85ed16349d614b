#!/usr/bin/env bash
# Non-test library lines per crate, the size metric of the north star:
# for every .rs file under crates/<crate>/src, the lines before the file's
# first column-0 `#[cfg(test)]` (all of its lines when it has none).
# Prints one line per crate and their total; not a gate.
#
#   scripts/loc.sh                              # every crate under crates/
#   scripts/loc.sh sim trace sqldb core workload
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  set -- $(ls crates)
fi
total=0
for crate in "$@"; do
  lines="$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }')"
  printf '%-10s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
