#!/usr/bin/env bash
# Builds the daemon and e2e.exe from source, then runs e2e.exe from the
# repository root with the given arguments, e.g.
#   bash bench/e2e/run.sh --workload hot-paper --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep every build artefact inside the repository (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . bin/hetsched.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe \
  --daemon ./_build/default/bin/hetsched.exe --benchmark BENCHMARK.json "$@"
