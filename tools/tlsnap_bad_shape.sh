#!/usr/bin/env bash
# Fail-closed check for snapshot platform shapes: `tlsnap verify` and
# `tlsim run --resume-from` build a Platform from a snapshot's PCFG chunk,
# so a PCFG whose EA-MPU bank sizes or DMA mode are out of range must make
# both exit 1 with INVALID_ARGUMENT, not abort (exit 134) or allocate
# gigabytes. Each case patches one PCFG field of a real `--snapshot-every`
# checkpoint and recomputes the chunk CRC, so only the range check can
# reject it.
#
# usage: tools/tlsnap_bad_shape.sh <tlsim> <tlsnap> <program.s> <work-dir>
set -euo pipefail

TLSIM="$1"; TLSNAP="$2"; PROG="$3"; WORK="$4"
rm -rf "$WORK"
mkdir -p "$WORK"
"$TLSIM" run "$PROG" --snapshot-every 1000 --snapshot-out "$WORK/ck" \
    >/dev/null
GOOD="$WORK/ck-0001.tlsnap"
"$TLSNAP" verify "$GOOD" >/dev/null

# expect_invalid <what> <command...>: exit status 1 and INVALID_ARGUMENT.
expect_invalid() {
  local what="$1"; shift
  local status=0
  "$@" >"$WORK/out" 2>&1 || status=$?
  if [[ "$status" -ne 1 ]] || ! grep -q INVALID_ARGUMENT "$WORK/out"; then
    echo "tlsnap_bad_shape: $what: exit $status, expected 1 with" \
         "INVALID_ARGUMENT:" >&2
    cat "$WORK/out" >&2
    exit 1
  fi
}

# PCFG is the first chunk: a 16-byte container header, tag(4), length(4),
# then the payload's four flag bytes and LE32 mpu_regions, mpu_rules and
# dma_mode (docs/SNAPSHOT_FORMAT.md).
cases=(mpu_regions:4:0 mpu_regions:4:4294967295 mpu_regions:4:268435456
       mpu_rules:8:513 dma_mode:12:2)
for spec in "${cases[@]}"; do
  IFS=: read -r field offset value <<<"$spec"
  bad="$WORK/$field-$value.tlsnap"
  python3 - "$GOOD" "$bad" "$offset" "$value" <<'EOF'
import struct, sys, zlib
src, dst = sys.argv[1], sys.argv[2]
offset, value = int(sys.argv[3]), int(sys.argv[4])
data = bytearray(open(src, "rb").read())
tag, length = struct.unpack_from("<4sI", data, 16)
assert tag == b"PCFG", tag
payload = 24
struct.pack_into("<I", data, payload + offset, value)
crc = zlib.crc32(bytes(data[payload:payload + length])) & 0xFFFFFFFF
struct.pack_into("<I", data, payload + length, crc)
open(dst, "wb").write(data)
EOF
  expect_invalid "tlsnap verify ($field=$value)" "$TLSNAP" verify "$bad"
  expect_invalid "tlsim run --resume-from ($field=$value)" \
      "$TLSIM" run --resume-from "$bad"
done
echo "tlsnap_bad_shape: ${#cases[@]} crafted shapes rejected by both tools," \
     "all checks passed"
