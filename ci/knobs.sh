#!/usr/bin/env bash
# Print the number of independently settable values the system exposes:
# command-line flags registered per cmd/*, and fields of every exported
# *Options / *Config struct under oasis/ and internal/ (non-test Go, excluding
# benchmark/), plus a total.  ROADMAP aim 2 counts knobs next to lines: a PR
# records this total before and after in CHANGES.md, as it does ci/loc.sh's.
# Run from the repository root.
set -euo pipefail

sources() { find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | sort -z; }

total=0
for dir in cmd/*/; do
  n=$(sources "$dir" | xargs -0 cat |
    grep -cE '\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text)?(Var|Func)?\(' || true)
  [ "$n" -gt 0 ] || continue
  printf '%7d  %s flags\n' "$n" "${dir%/}"
  total=$((total + n))
done

# One line per struct: fields are the non-blank, non-comment lines between the
# opening line and the closing brace; "A, B int" declares two.
structs=$(sources oasis internal | xargs -0 awk '
  FNR == 1 { in_struct = 0 }
  !in_struct && /^type ([A-Z][A-Za-z0-9]*)?(Options|Config) struct \{$/ {
    in_struct = 1; name = $2; fields = 0; next
  }
  in_struct && /^\}/ {
    dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
    printf "%7d  %s.%s fields\n", fields, dir, name
    in_struct = 0; next
  }
  in_struct {
    line = $0
    sub(/\/\/.*/, "", line)
    if (line ~ /^[ \t]*$/) next
    names = line
    sub(/^[ \t]+/, "", names)
    sub(/[ \t]+[^,]*$/, "", names)   # drop the type (and tag): what follows the last name
    fields += gsub(/,/, ",", names) + 1
  }
')
if [ -n "$structs" ]; then
  printf '%s\n' "$structs"
  total=$((total + $(printf '%s\n' "$structs" | awk '{ n += $1 } END { print n }')))
fi
printf '%7d  total settable values (flags + option fields)\n' "$total"
