#!/bin/sh
# Build the benchmark from source, then run it. From the repository root:
#
#   bash rollbench/run.sh --workload star-disk --seed 1 --seconds 45 --trace 0
#
# Build output goes to stderr, so the last line of stdout is always the
# benchmark's JSON result. The build stays inside the checkout (_build);
# the shared dune cache is disabled for the same reason.
#
# The benchmark runs with address-space randomization off where the
# system allows it: with it on, each run drew a new memory layout, and
# the layouts fell into a fast and a slow group (the same seed of
# fleet-mem gave 302 to 390 txn/s over four runs; 296 to 316 without).
set -e
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./rollbench/main.exe 1>&2
exe=./_build/default/rollbench/main.exe
if setarch "$(uname -m)" -R true 2>/dev/null; then
  exec setarch "$(uname -m)" -R "$exe" "$@"
fi
exec "$exe" "$@"
