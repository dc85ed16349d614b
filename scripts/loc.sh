#!/usr/bin/env bash
# Non-test library size per crate, the size metrics of the north star:
# for every .rs file under crates/<crate>/src, the lines before the file's
# first column-0 `#[cfg(test)]` (all of its lines when it has none), and
# how many of those lines declare a public item (`pub fn`, `pub struct`,
# `pub enum`, `pub trait`, `pub type`, `pub const` or `pub static`; not
# `pub(crate)`, fields or re-exports). Prints one line per crate and their
# totals; not a gate.
#
#   scripts/loc.sh                              # every crate under crates/
#   scripts/loc.sh sim trace sqldb core workload
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  set -- $(ls crates)
fi
total=0
total_pub=0
printf '%-10s %6s %6s\n' crate lines pub
for crate in "$@"; do
  read -r lines pub < <(find "crates/$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    counting && /^[ \t]*pub (fn|struct|enum|trait|type|const|static) / { p++ }
    END { print n + 0, p + 0 }')
  printf '%-10s %6d %6d\n' "$crate" "$lines" "$pub"
  total=$((total + lines))
  total_pub=$((total_pub + pub))
done
printf '%-10s %6d %6d\n' total "$total" "$total_pub"
