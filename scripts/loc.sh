#!/usr/bin/env bash
# Code-line table for ROADMAP aim 2 ("the least code"): per package, the
# non-test .go lines that are neither blank nor // comments. Covers the root
# package, each internal/* and each cmd/* — never bench/, which is its own
# module and measures the repo rather than being part of it.
#
#   scripts/loc.sh            # markdown table: package | files | code lines
#   scripts/loc.sh -files .   # per-file breakdown of one package directory
#   scripts/loc.sh -base REF  # per-package delta of the working tree against a git ref
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # code lines of the files given as arguments
	cat "$@" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

sources() { # non-test .go files directly inside directory $1
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort
}

packages() { # "name files lines" per package of the tree rooted at $1
	(
		cd "$1"
		for dir in . internal/*/ cmd/*/; do
			files=$(sources "${dir%/}")
			[ -n "$files" ] || continue
			name=${dir%/}
			[ "$name" = "." ] && name="(root)"
			echo "$name $(echo "$files" | wc -l) $(count $files)"
		done
	)
}

case "${1:-}" in
-files)
	for f in $(sources "${2:?usage: loc.sh -files DIR}"); do
		printf '%6d  %s\n' "$(count "$f")" "${f#./}"
	done
	;;
-base)
	base=$(mktemp -d)
	trap 'rm -rf "$base"' EXIT
	git archive "${2:?usage: loc.sh -base REF}" | tar -x -C "$base"
	echo "| package | base | head | Δ |"
	echo "|---|---:|---:|---:|"
	# Join on the package name; a package on one side only counts 0 on the other.
	{ packages "$base" | sed 's/^/base /'; packages . | sed 's/^/head /'; } |
		awk '{ if (!($2 in seen)) { seen[$2]; order[++n] = $2 } lines[$1, $2] = $4 }
			END {
				for (i = 1; i <= n; i++) {
					p = order[i]; b = lines["base", p] + 0; h = lines["head", p] + 0
					tb += b; th += h
					if (b != h) printf "| %s | %d | %d | %+d |\n", p, b, h, h - b
				}
				printf "| **total** | **%d** | **%d** | **%+d** |\n", tb, th, th - tb
			}'
	;;
*)
	echo "| package | files | code lines |"
	echo "|---|---:|---:|"
	packages . | awk '{ printf "| %s | %d | %d |\n", $1, $2, $3; total += $3 }
		END { printf "| **total** | | **%d** |\n", total }'
	;;
esac
