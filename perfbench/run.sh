#!/bin/sh
# Build the program and the benchmark executable from source, then run
# the benchmark with the given arguments.  Run from the root of a checkout:
#   sh perfbench/run.sh --workload hit_http --seed 1 --seconds 10 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/ssg.ml ]; then
  echo "perfbench: run from the root of an ssg checkout (program sources missing)" >&2
  exit 2
fi
dune build --root . ./bin/ssg.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
