#!/bin/sh
# Builds the benchmark from the sources of this checkout and runs it.
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
# Build output goes to standard error; the benchmark's result is the last
# line of standard output.  Exits non-zero if the build or any check fails.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
