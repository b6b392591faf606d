#!/bin/sh
# Build the benchmark from source, then run it; arguments pass through:
#   sh perfbench/run.sh --workload spec-exec --seed 1 --seconds 30 --trace 0
# Run from the root of a full checkout of the repository.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not the root of a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
