#!/usr/bin/env bash
# Runs every native fuzz target of the module for a while: finds each
# `func Fuzz*` in a _test.go file (bench/ is its own module and has none) and
# fuzzes it alone in its package (go test takes one -fuzz target per run) for
# -fuzztime (default 15s). A failing input
# is written under the package's testdata/fuzz/ by the go tool; check it in
# with the fix. Usage: scripts/fuzz.sh [-fuzztime 30s]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
fuzztime=15s
if [ "${1:-}" = "-fuzztime" ]; then
	fuzztime=${2:?-fuzztime needs a duration}
fi
found=0
while IFS=: read -r file target; do
	found=$((found + 1))
	echo "== $target in ./$(dirname "$file") for $fuzztime"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "./$(dirname "$file")"
done < <(grep -rHoE --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*' . | sed -E 's/^\.\///; s/:func /:/' | sort)
if [ "$found" -eq 0 ]; then
	echo "fuzz.sh: no fuzz target found" >&2
	exit 1
fi
echo "fuzz.sh: $found targets, $fuzztime each"
