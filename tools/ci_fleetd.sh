#!/usr/bin/env bash
# Fleet control-plane gate (DESIGN.md §17, docs/FLEET.md): drives full
# tlfleetd operator sessions and enforces:
#  * a 256-node warm-boot session — admission, 3 re-attestation epochs, a
#    digest-checked config push, scale-up by 8 snapshot clones, drain —
#    completes with every node admitted, and its transcript, status epochs
#    and fleet digest are bit-identical at --threads 1 and 8,
#  * the status stream has exactly one JSON epoch per phase, in order,
#  * quarantine reasons are stable: a tampered node reports
#    "reason":"mismatch" and --halt-on-quarantine turns it into a failure,
#  * a hostile-all link matrix cannot defeat the control plane and stays
#    deterministic across thread counts,
#  * the worked session in docs/FLEET.md still prints what the page shows,
#    fleet digest included.
#
# usage: tools/ci_fleetd.sh <tlfleetd-binary> [work-dir]
set -euo pipefail

TLFLEETD="${1:?usage: ci_fleetd.sh <tlfleetd> [work-dir]}"
WORK="${2:-$(mktemp -d)}"
DOC="$(dirname "$0")/../docs/FLEET.md"
mkdir -p "$WORK"

fail() { echo "ci_fleetd: FAIL: $*" >&2; exit 1; }

# --- Stage 1: 256-node session, deterministic across threads. --------------
for threads in 1 8; do
  "$TLFLEETD" run --nodes 256 --seed 9 --warm-boot --epochs 3 \
      --config mode=eco --config rate=9600 --scale-up 8 \
      --threads "$threads" \
      --status-json "$WORK/status_t${threads}.json" \
      --transcript "$WORK/transcript_t${threads}.txt" \
      > "$WORK/out_t${threads}.txt" \
      || fail "256-node session --threads $threads exited nonzero"
done
grep -q "session: complete — epochs=3 nodes=264 admitted=264 quarantined=0 \
gen=1" "$WORK/out_t1.txt" || fail "256-node session summary mismatch"
cmp -s "$WORK/transcript_t1.txt" "$WORK/transcript_t8.txt" \
    || fail "transcripts differ between --threads 1 and 8"
cmp -s "$WORK/status_t1.json" "$WORK/status_t8.json" \
    || fail "status epochs differ between --threads 1 and 8"
[ "$(grep '^fleet-digest:' "$WORK/out_t1.txt")" = \
  "$(grep '^fleet-digest:' "$WORK/out_t8.txt")" ] \
    || fail "fleet digests differ between --threads 1 and 8"
echo "ci_fleetd: 256-node session deterministic at t1/t8"

# --- Stage 2: one JSON epoch per phase, in lifecycle order. ----------------
phases=$(sed -n 's/^{"phase":"\([a-z-]*\)".*/\1/p' "$WORK/status_t1.json" \
    | tr '\n' ' ')
want="admission reattest reattest reattest config-push scale-up drain "
[ "$phases" = "$want" ] \
    || fail "status phases '$phases' != expected '$want'"
grep -q '"node":263' "$WORK/status_t1.json" \
    || fail "status epochs lack the scaled-up nodes"
grep -q '"cloned_from":' "$WORK/status_t1.json" \
    || fail "status epochs lack clone lineage"
echo "ci_fleetd: status epoch stream ok"

# --- Stage 3: stable quarantine reasons + halt-on-quarantine. --------------
"$TLFLEETD" run --nodes 16 --seed 9 --tamper 2 --epochs 1 \
    --status-json "$WORK/tamper_status.json" \
    > "$WORK/tamper_out.txt" \
    || fail "tamper session exited nonzero without --halt-on-quarantine"
grep -q '"reason":"mismatch"' "$WORK/tamper_status.json" \
    || fail "tampered nodes lack reason=mismatch in status output"
grep -q "quarantined=2" "$WORK/tamper_out.txt" \
    || fail "tamper session did not quarantine exactly the tampered nodes"
if "$TLFLEETD" run --nodes 16 --seed 9 --tamper 2 --halt-on-quarantine \
    > "$WORK/halt_out.txt" 2> "$WORK/halt_err.txt"; then
  fail "--halt-on-quarantine did not fail the session"
fi
grep -q "halt-on-quarantine" "$WORK/halt_err.txt" \
    || fail "halt failure lacks the halt-on-quarantine diagnostic"
echo "ci_fleetd: quarantine reasons + halt-on-quarantine ok"

# --- Stage 4: hostile-all matrix stays correct and deterministic. ----------
for threads in 1 8; do
  "$TLFLEETD" run --nodes 32 --seed 11 --epochs 2 --hostile all \
      --config mode=eco --scale-up 2 --threads "$threads" \
      --transcript "$WORK/hostile_t${threads}.txt" \
      > "$WORK/hostile_out_t${threads}.txt" \
      || fail "hostile session --threads $threads exited nonzero"
done
grep -q "session: complete — epochs=2 nodes=34 admitted=34 quarantined=0" \
    "$WORK/hostile_out_t1.txt" \
    || fail "hostile links defeated the control plane"
cmp -s "$WORK/hostile_t1.txt" "$WORK/hostile_t8.txt" \
    || fail "hostile transcripts differ between --threads 1 and 8"
[ "$(grep '^fleet-digest:' "$WORK/hostile_out_t1.txt")" = \
  "$(grep '^fleet-digest:' "$WORK/hostile_out_t8.txt")" ] \
    || fail "hostile fleet digests differ between --threads 1 and 8"
echo "ci_fleetd: hostile-all matrix ok"

# --- Stage 5: the docs/FLEET.md worked session reproduces. -----------------
# The page's "$ tlfleetd run ..." command (with its continuation lines) is
# rerun in the work dir, and its stdout must equal the output lines the page
# shows under it, up to the closing fence.
cmd="$(awk '/^\$ tlfleetd run /{grab=1}
            grab{more = sub(/\\$/, ""); sub(/^\$ /, ""); printf "%s ", $0}
            grab && !more{exit}' "$DOC")"
awk '/^\$ tlfleetd run /{cmd=1} cmd && /^```/{exit} out{print}
     cmd && !/\\$/{out=1}' "$DOC" > "$WORK/doc_want.txt"
read -ra argv <<< "${cmd#tlfleetd }"
[ "${#argv[@]}" -gt 1 ] || fail "no '\$ tlfleetd run' command in $DOC"
mkdir -p "$WORK/doc"
(cd "$WORK/doc" && "$TLFLEETD" "${argv[@]}") > "$WORK/doc_got.txt" \
    || fail "docs/FLEET.md worked session exited nonzero"
diff "$WORK/doc_want.txt" "$WORK/doc_got.txt" >&2 \
    || fail "docs/FLEET.md worked session output (fleet digest included)" \
            "differs from the page"
echo "ci_fleetd: docs/FLEET.md worked session reproduces"

echo "ci_fleetd: all checks passed"
