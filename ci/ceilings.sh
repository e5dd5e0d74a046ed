#!/usr/bin/env bash
# Ratchet on the two size counters: print ci/loc.sh and ci/knobs.sh as before,
# then fail when either total exceeds its ceiling in ci/ceilings.txt (one
# "<counter> <ceiling>" line per script).  ROADMAP aim 2 says both totals go
# down PR over PR; a PR that lowers one lowers its ceiling to the new total in
# the same change, so the surface cannot quietly regrow.  Run from the
# repository root.
set -euo pipefail

status=0
while read -r counter ceiling; do
  out=$("./ci/$counter.sh")
  printf '%s\n' "$out"
  total=$(printf '%s\n' "$out" | awk 'END { print $1 }')
  if [ "$total" -gt "$ceiling" ]; then
    echo "ci/$counter.sh total $total exceeds the ceiling $ceiling in ci/ceilings.txt" >&2
    status=1
  fi
done < ci/ceilings.txt
exit $status
