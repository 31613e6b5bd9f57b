#!/usr/bin/env bash
# Code-line table for ROADMAP aim 2 ("the least code"): per package, the
# non-test .go lines that are neither blank nor // comments. Covers the root
# package, each internal/* and each cmd/* — never bench/, which is its own
# module and measures the repo rather than being part of it.
#
#   scripts/loc.sh            # markdown table: package | files | code lines
#   scripts/loc.sh -files .   # per-file breakdown of one package directory
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # code lines of the files given as arguments
	cat "$@" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

sources() { # non-test .go files directly inside directory $1
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort
}

if [ "${1:-}" = "-files" ]; then
	for f in $(sources "${2:?usage: loc.sh -files DIR}"); do
		printf '%6d  %s\n' "$(count "$f")" "${f#./}"
	done
	exit 0
fi

echo "| package | files | code lines |"
echo "|---|---:|---:|"
total=0
for dir in . internal/*/ cmd/*/; do
	files=$(sources "${dir%/}")
	[ -n "$files" ] || continue
	n=$(count $files)
	total=$((total + n))
	name=${dir%/}
	[ "$name" = "." ] && name="(root)"
	echo "| $name | $(echo "$files" | wc -l) | $n |"
done
echo "| **total** | | **$total** |"
