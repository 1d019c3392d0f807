#!/usr/bin/env bash
# Fails when a name in a `go test -run '...'` pattern of the CI workflow
# matches no test in the packages its command names, so a test renamed or
# moved to another package cannot drop silently out of the step that runs it.
# Each alternative of the pattern is matched, as -run matches it, against the
# names `go test -list` prints for those packages. '^$' (run no test, fuzz
# only) is skipped.
#
# Usage: .github/scripts/check-run-patterns.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
declare -A listed # package -> its test names, listed once
status=0

while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line" | grep -oE '\./[^ ;|&]*' || true)
	if [ -z "$pkgs" ]; then
		echo "no packages named: $line" >&2
		status=1
		continue
	fi
	names=""
	for pkg in $pkgs; do
		if [ -z "${listed[$pkg]+set}" ]; then
			listed[$pkg]=$(go test -list . "$pkg" | grep -E '^(Test|Example|Fuzz)' || true)
		fi
		names+="${listed[$pkg]}"$'\n'
	done
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "-run name '$alt' matches no test in:" $pkgs >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$workflow")

exit $status
