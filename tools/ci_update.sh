#!/usr/bin/env bash
# Secure OTA update-campaign gate (DESIGN.md §16): exercises the full
# .tlfw → fleet rollout pipeline and enforces:
#  * tlfw pack/info/sign/verify round-trips, and a wrong key fails closed,
#  * a 256-node warm-boot staged rollout (10% canary) commits every node,
#    with transcripts and fleet digests bit-identical at --threads 1 and 8,
#  * a mid-campaign canary tamper halts the rollout, rolls back the
#    uncommitted canaries, quarantines the tampered node and fails the
#    session with a halt-on-quarantine diagnostic,
#  * replaying the previous (still correctly signed) image is rejected
#    fleet-wide by the monotonic anti-rollback counter.
#
# The rollouts are `tlfleetd run` sessions of admission, one update phase
# per --update-image, then drain: --epochs 0, and --beacon-quanta 0 so only
# attestation and update traffic crosses the links.
#
# usage: tools/ci_update.sh <tlfleetd-binary> <tlfw-binary> <guest.s> [work-dir]
set -euo pipefail

TLFLEETD="${1:?usage: ci_update.sh <tlfleetd> <tlfw> <guest.s> [work-dir]}"
TLFW="${2:?usage: ci_update.sh <tlfleetd> <tlfw> <guest.s> [work-dir]}"
GUEST="${3:?usage: ci_update.sh <tlfleetd> <tlfw> <guest.s> [work-dir]}"
WORK="${4:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "ci_update: FAIL: $*" >&2; exit 1; }

# --- Stage 1: container tool round-trip. -----------------------------------
"$TLFW" pack "$WORK/v2.tlfw" --version 2 --name ci-v2 \
    --payload-seed 11 --payload-bytes 1200 > /dev/null \
    || fail "tlfw pack v2"
"$TLFW" pack "$WORK/v3.tlfw" --version 3 --name ci-v3 \
    --payload-seed 12 --payload-bytes 900 > /dev/null \
    || fail "tlfw pack v3"
"$TLFW" info "$WORK/v2.tlfw" | grep -q "version: 2" || fail "tlfw info"
"$TLFW" sign "$WORK/v2.tlfw" "$WORK/v2s.tlfw" --fleet-seed 9 --node 0 \
    > /dev/null || fail "tlfw sign"
"$TLFW" verify "$WORK/v2s.tlfw" --fleet-seed 9 --node 0 > /dev/null \
    || fail "tlfw verify (right key)"
if "$TLFW" verify "$WORK/v2s.tlfw" --fleet-seed 9 --node 1 > /dev/null 2>&1
then
  fail "tlfw verify accepted a wrong-device key"
fi
echo "ci_update: tlfw round-trip ok"

# --- Stage 2: clean 256-node staged rollout, deterministic across threads. -
for threads in 1 8; do
  "$TLFLEETD" run "$GUEST" --epochs 0 --beacon-quanta 0 --warm-boot \
      --nodes 256 --seed 9 \
      --threads "$threads" --update-image "$WORK/v2.tlfw" --canary-pct 10 \
      --transcript "$WORK/clean_t${threads}.txt" \
      > "$WORK/clean_out_t${threads}.txt" \
      || fail "clean rollout --threads $threads exited nonzero"
done
grep -q "update\[0\]: version=2 phase=done committed=256 rolledback=0 \
quarantined=0 rejected=0 canaries=26" "$WORK/clean_out_t1.txt" \
    || fail "clean rollout summary mismatch"
cmp -s "$WORK/clean_t1.txt" "$WORK/clean_t8.txt" \
    || fail "clean rollout transcripts differ between --threads 1 and 8"
[ "$(grep '^fleet-digest:' "$WORK/clean_out_t1.txt")" = \
  "$(grep '^fleet-digest:' "$WORK/clean_out_t8.txt")" ] \
    || fail "clean rollout fleet digests differ between --threads 1 and 8"
echo "ci_update: clean 256-node rollout ok"

# --- Stage 3: mid-campaign tamper => halt, rollback, quarantine. -----------
if "$TLFLEETD" run "$GUEST" --epochs 0 --beacon-quanta 0 --nodes 64 \
    --seed 9 \
    --update-image "$WORK/v2.tlfw" --canary-pct 10 --halt-on-quarantine \
    --update-tamper-canary --transcript "$WORK/tamper.txt" \
    > "$WORK/tamper_out.txt" 2> "$WORK/tamper_err.txt"
then
  fail "halted tamper rollout exited zero"
fi
grep -q "halt-on-quarantine" "$WORK/tamper_err.txt" \
    || fail "halted rollout lacks the halt-on-quarantine diagnostic"
grep -q "update\[0\]: version=2 phase=aborted committed=0 rolledback=6 \
quarantined=1 rejected=0 canaries=7" "$WORK/tamper_out.txt" \
    || fail "tamper rollout summary mismatch"
grep -q "aborted: 1 node(s) quarantined" "$WORK/tamper.txt" \
    || fail "tamper transcript missing the abort"
echo "ci_update: halt-on-quarantine rollback ok"

# --- Stage 4: anti-rollback replay rejected fleet-wide. --------------------
if "$TLFLEETD" run "$GUEST" --epochs 0 --beacon-quanta 0 --nodes 64 \
    --seed 9 \
    --update-image "$WORK/v3.tlfw" --update-image "$WORK/v2.tlfw" \
    --canary-pct 100 --transcript "$WORK/replay.txt" \
    > "$WORK/replay_out.txt" 2> "$WORK/replay_err.txt"
then
  fail "replaying an older image exited zero"
fi
grep -q "update\[0\]: version=3 phase=done committed=64" \
    "$WORK/replay_out.txt" || fail "replay stage: v3 rollout failed"
grep -q "update\[1\]: version=2 phase=aborted committed=0 rolledback=0 \
quarantined=0 rejected=64" "$WORK/replay_out.txt" \
    || fail "replay stage: v2 not rejected on all 64 nodes"
grep -q "anti-rollback" "$WORK/replay.txt" \
    || fail "replay transcript missing the anti-rollback rejection"
echo "ci_update: fleet-wide anti-rollback rejection ok"

echo "ci_update: all checks passed"
