#!/usr/bin/env bash
# Hostile-link attestation gate (DESIGN.md §13): runs an attested fleet
# (a `tlfleetd run` session of admission then drain: --epochs 0, and
# --beacon-quanta 0 so only attestation traffic crosses the links) under
# every active link-attack mode — seeded corruption, stale-report replay,
# challenge reflection, and all three at once — at --threads 1 and
# --threads 8, and enforces:
#  * the verdicts match the tamper plan under every attack,
#  * the attack actually fired (per-mode hostile counter nonzero),
#  * the verifier transcript and the fleet digest are bit-identical across
#    thread counts (the determinism headline survives an active adversary).
#
# Replay needs at least two captured frames on a link before a stale copy
# can be re-delivered, so the replay/all stages tamper one node: its retry
# traffic populates the adversary's capture history.
#
# usage: tools/ci_hostile.sh <tlfleetd-binary> [work-dir]
set -euo pipefail

TLFLEETD="${1:?usage: ci_hostile.sh <tlfleetd-binary> [work-dir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "ci_hostile: FAIL: $*" >&2; exit 1; }

# run <tag> <threads> <extra tlfleetd args...>
run() {
  local tag="$1" threads="$2"
  shift 2
  "$TLFLEETD" run --epochs 0 --beacon-quanta 0 --nodes 4 --seed 7 \
      --threads "$threads" \
      --stats --transcript "$WORK/tx_${tag}_t${threads}.txt" "$@" \
      > "$WORK/out_${tag}_t${threads}.txt" \
      || fail "$tag --threads $threads exited nonzero"
}

# check <tag> <verdict regex> <counter name>
check() {
  local tag="$1" verdict="$2" counter="$3"
  local out="$WORK/out_${tag}_t1.txt"
  grep -q "$verdict" "$out" || fail "$tag: verdict mismatch (want: $verdict)"
  local count
  count="$(grep -o "$counter [0-9]*" "$out" | head -1 | cut -d' ' -f2)"
  [ "${count:-0}" -gt 0 ] || fail "$tag: attack never fired ($counter 0)"
  cmp -s "$WORK/tx_${tag}_t1.txt" "$WORK/tx_${tag}_t8.txt" \
      || fail "$tag: transcripts differ between --threads 1 and 8"
  [ "$(grep '^fleet-digest:' "$out")" = \
    "$(grep '^fleet-digest:' "$WORK/out_${tag}_t8.txt")" ] \
      || fail "$tag: fleet digests differ between --threads 1 and 8"
  echo "ci_hostile: $tag ok"
}

for threads in 1 8; do
  run corrupt "$threads" --hostile corrupt --hostile-ppm 150000
  run replay  "$threads" --hostile replay --hostile-ppm 1000000 --tamper 1
  run reflect "$threads" --hostile reflect --hostile-ppm 1000000
  run all     "$threads" --corrupt-ppm 150000 --replay-ppm 1000000 \
              --reflect-ppm 1000000 --tamper 1
done

check corrupt "^session: complete .* admitted=4 quarantined=0 " corrupted
check replay  "^session: complete .* admitted=3 quarantined=1 " replayed
check reflect "^session: complete .* admitted=4 quarantined=0 " reflected
check all     "^session: complete .* admitted=3 quarantined=1 " replayed

echo "ci_hostile: all checks passed"
