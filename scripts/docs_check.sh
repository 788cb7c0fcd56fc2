#!/usr/bin/env bash
# docs_check.sh — the `make docs-check` body: doc-comment lint over every
# package, plus a relative-link check and a cited-test-name check over
# the user-facing markdown.
# Uses only cmd/doclint (stdlib-only); exits non-zero on any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"

echo "doclint: Go doc comments"
pkgs=(.)
for d in internal/*/ cmd/*/ examples/*/; do
  pkgs+=("$d")
done
"$GO" run ./cmd/doclint docs "${pkgs[@]}"

echo "doclint: doc-comment cross-references"
"$GO" run ./cmd/doclint xref "${pkgs[@]}"

echo "doclint: markdown links"
"$GO" run ./cmd/doclint links \
  README.md \
  ARCHITECTURE.md \
  DESIGN.md \
  EXPERIMENTS.md \
  ROADMAP.md \
  docs/DEBUGGING.md

# ROADMAP is left out: it names tests and benchmarks it plans to delete.
echo "doclint: cited test names"
"$GO" run ./cmd/doclint tests \
  README.md \
  ARCHITECTURE.md \
  DESIGN.md \
  EXPERIMENTS.md \
  docs/DEBUGGING.md

echo "docs-check: OK"
