#!/bin/sh
# Runs every fuzz target in the tree for 3 s each: every `func Fuzz...`
# in a *_test.go file, as
#   go test -run '^$' -fuzz '^<name>$' -fuzztime 3s <pkg>
# from the package's directory, so a nested module's targets run in that
# module. A failing input is written to the package's testdata/fuzz
# corpus and fails the run.
set -eu
cd "$(dirname "$0")/.."

files=$(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func Fuzz' . | sort)
for f in $files; do
	dir=$(dirname "$f")
	for name in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$f"); do
		echo "-- $name ($dir)"
		(cd "$dir" && go test -run '^$' -fuzz "^$name\$" -fuzztime 3s .)
	done
done
