#!/usr/bin/env bash
# Smoke test for `tlsim run --trace`: stderr must hold one disassembly line
# per retired instruction (the count the run summary reports), the first
# being the entry instruction as `tlsim disas` renders it. `tlsim run`
# assembles at 0x30000 and the shipped examples start at their first byte.
#
# usage: tools/tlsim_trace_smoke.sh <tlsim> <program.s> <work-dir>
set -euo pipefail

TLSIM="$1"; PROG="$2"; WORK="$3"
mkdir -p "$WORK"
"$TLSIM" run "$PROG" --trace --stats >"$WORK/run.out" 2>"$WORK/trace.err"
grep -E '^[0-9a-f]{8}:  ' "$WORK/trace.err" >"$WORK/listing" || true
retired="$(sed -nE 's/^instructions: ([0-9]+) .*/\1/p' "$WORK/run.out")"
listed="$(wc -l <"$WORK/listing")"
"$TLSIM" asm "$PROG" --origin 0x30000 -o "$WORK/prog.bin" >/dev/null
entry="$("$TLSIM" disas "$WORK/prog.bin" --base 0x30000 | head -n 1 |
         sed -E 's/^([0-9a-f]{8}:)  [0-9a-f]{8}  /\1  /')"
first="$(head -n 1 "$WORK/listing")"

if [[ "$listed" != "$retired" || "$first" != "$entry" ]]; then
  echo "tlsim_trace_smoke: $listed lines for ${retired:-?} retired" \
       "instructions; first '$first', expected '$entry'" >&2
  exit 1
fi
echo "tlsim_trace_smoke: $retired instructions traced, all checks passed"
