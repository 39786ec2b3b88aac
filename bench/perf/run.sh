#!/bin/sh
# Build the layered benchmark and the ftc binary from source, then run it.
# Run from the root of an ftc checkout:
#   sh bench/perf/run.sh --workload serve-election --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: not the root of an ftc checkout (dune-project, lib/ and bin/ are needed)" >&2
  exit 2
fi
dune build --root . ./bench/perf/main.exe ./bin/ftc.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
