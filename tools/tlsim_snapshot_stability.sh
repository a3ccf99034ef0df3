#!/usr/bin/env bash
# Snapshot byte-stability check for `tlsim run --snapshot-every`: the same
# run, once plainly and once with glibc filling fresh heap blocks with
# garbage (MALLOC_PERTURB_), must write the same snapshot files byte for
# byte. A snapshot that serializes uninitialized host memory differs.
#
# usage: tools/tlsim_snapshot_stability.sh <tlsim> <program.s> <work-dir>
set -euo pipefail

TLSIM="$1"; PROG="$2"; WORK="$3"
rm -rf "$WORK"
mkdir -p "$WORK/plain" "$WORK/perturbed"
"$TLSIM" run "$PROG" --snapshot-every 500 \
    --snapshot-out "$WORK/plain/ck" >/dev/null
MALLOC_PERTURB_=165 "$TLSIM" run "$PROG" --snapshot-every 500 \
    --snapshot-out "$WORK/perturbed/ck" >/dev/null
diff -r "$WORK/plain" "$WORK/perturbed" >&2
count="$(find "$WORK/plain" -name 'ck-*.tlsnap' | wc -l)"
[[ "$count" -gt 0 ]]
echo "tlsim_snapshot_stability: $count snapshots byte-identical, all checks passed"
