#!/usr/bin/env bash
# Print non-test Go lines of code per package and in total, excluding
# benchmark/ (the benchmark harness is not the system under measurement).
# ROADMAP aim 2 says this number should go down; CHANGES.md records the
# before/after totals of each PR.  Run from the repository root.
set -euo pipefail

loc() { find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -printf '%h\n' | sort -u |
  while read -r dir; do
    printf '%7d  %s\n' "$(loc "$dir" -maxdepth 1)" "${dir#./}"
  done
printf '%7d  total (non-test, excluding benchmark/)\n' "$(loc . ! -path './benchmark/*')"
