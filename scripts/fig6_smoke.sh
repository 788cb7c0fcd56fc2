#!/usr/bin/env bash
# fig6_smoke.sh — end-to-end smoke of the paper's evaluation and
# graph-rendering subcommands: Fig. 6(a) and 6(b) on a small AcmeAir
# load, then the Fig. 4 case's graph log piped through `asyncg viz` as
# DOT and as SVG. Every command must exit 0. Run from the repository
# root (make fig6-smoke).
set -euo pipefail

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/asyncg" ./cmd/asyncg
A="$TMP/asyncg"

"$A" fig6 -fig all -requests 200 -clients 4 >"$TMP/fig6.txt"
grep -q '^Fig. 6(a)' "$TMP/fig6.txt"
grep -q '^Fig. 6(b)' "$TMP/fig6.txt"
echo "fig6-smoke: asyncg fig6 -fig all regenerated both figures"

"$A" -case fig4 -json /dev/stdout | "$A" viz - >"$TMP/fig4.dot"
grep -q '^digraph AsyncGraph {' "$TMP/fig4.dot"
echo "fig6-smoke: asyncg -case fig4 -json | asyncg viz - rendered DOT"

"$A" -case fig4 -json /dev/stdout | "$A" viz -svg - >"$TMP/fig4.svg"
grep -q '^</svg>$' "$TMP/fig4.svg"
echo "fig6-smoke: asyncg -case fig4 -json | asyncg viz -svg - rendered SVG"
