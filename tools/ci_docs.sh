#!/usr/bin/env bash
# Docs CI gate (tier-2 ctest `ci_docs`): keeps the prose honest.
#
#   1. Markdown link integrity: every relative link in the root *.md files
#      and docs/ must resolve to an existing file.
#   2. CLI doc drift, both directions: every `--flag` named in README.md
#      must exist in some tool's --help, and every --help flag must be
#      named in README.md unless allowlisted below.
#   3. ROADMAP.md freshness: the "Open items" section must be non-empty
#      (the re-anchor contract; a placeholder list fails).
#   4. docs/README.md index completeness: every docs/*.md spec must be
#      linked from the docs index (a new spec that nobody can find fails).
#   5. The docs/SNAPSHOT_FORMAT.md worked example reproduces: its recipe is
#      rerun in a temp directory and `tlsnap info` must print the page's
#      inventory, DIGE included; a version-1 copy of the file must fail
#      with INVALID_ARGUMENT, as the page's version policy says.
#
# usage: tools/ci_docs.sh [src-dir] [tools-bin-dir]
set -uo pipefail

SRC="${1:-.}"
BIN="${2:-$SRC/build/tools}"
fail=0

note() { echo "ci_docs: $*" >&2; fail=1; }

# --- 1. relative markdown links -------------------------------------------
for md in "$SRC"/*.md "$SRC"/docs/*.md; do
  [[ -f "$md" ]] || continue
  dir="$(dirname "$md")"
  # [text](target) minus absolute URLs, mailto and pure anchors.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      note "broken link in ${md#"$SRC"/}: ($target)"
    fi
  done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$md" | sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/')
done

# --- 2. README flags vs tool --help ---------------------------------------
flags_of() { grep -oE '(^|[^-[:alnum:]])--[a-z][a-z0-9-]*' | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u; }

HELP_FLAGS=""
for tool in tlsim tlfleetd tlsnap tlfw; do
  if [[ ! -x "$BIN/$tool" ]]; then
    note "$BIN/$tool not built (needed for the --help drift check)"
    continue
  fi
  HELP_FLAGS+=$'\n'"$("$BIN/$tool" --help | flags_of)"
done
HELP_FLAGS="$(echo "$HELP_FLAGS" | sort -u | grep . || true)"

README_FLAGS="$(flags_of < "$SRC/README.md" || true)"

# Flags README uses that are not ours (cmake/ctest invocations).
README_ALLOW="--build --test-dir"
# Niche knobs documented in --help only.
HELP_ALLOW="--origin --entry --sp --max --uart-in --no-mpu
            --quantum --quanta --latency --quiet
            --corrupt-ppm --replay-ppm --reflect-ppm
            --chunk-bytes --payload-file --update-tamper-canary
            --idle-quanta --beacon-quanta"

for f in $README_FLAGS; do
  if ! grep -qxF -- "$f" <<<"$HELP_FLAGS" && ! grep -qwF -- "$f" <<<"$README_ALLOW"; then
    note "README.md names $f but no tool --help mentions it (stale docs?)"
  fi
done
for f in $HELP_FLAGS; do
  if ! grep -qxF -- "$f" <<<"$README_FLAGS" && ! grep -qwF -- "$f" <<<"$HELP_ALLOW"; then
    note "tool --help has $f but README.md never names it (undocumented flag?)"
  fi
done

# --- 3. docs/README.md index completeness ---------------------------------
if [[ -f "$SRC/docs/README.md" ]]; then
  for spec in "$SRC"/docs/*.md; do
    name="$(basename "$spec")"
    [[ "$name" == "README.md" ]] && continue
    if ! grep -q "($name" "$SRC/docs/README.md"; then
      note "docs/README.md does not link $name — add it to the index"
    fi
  done
else
  note "docs/README.md index is missing"
fi

# --- 4. ROADMAP Open items non-empty --------------------------------------
open_items="$(awk '/^## Open items/{grab=1; next} /^## /{grab=0} grab' "$SRC/ROADMAP.md" \
              | grep -cE '^- ' || true)"
if [[ "${open_items:-0}" -lt 1 ]]; then
  note "ROADMAP.md 'Open items' is empty — re-anchor it"
fi

# --- 5. docs/SNAPSHOT_FORMAT.md worked example ----------------------------
SNAP_DOC="$SRC/docs/SNAPSHOT_FORMAT.md"
for line in \
    "./build/tools/tlsim run examples/guest/hello.s --snapshot-every 1000" \
    "./build/tools/tlsnap info tlsim-snap-0001.tlsnap"; do
  grep -qxF -- "$line" "$SNAP_DOC" \
    || note "SNAPSHOT_FORMAT.md recipe no longer reads: $line"
done
if [[ -x "$BIN/tlsim" && -x "$BIN/tlsnap" ]]; then
  snap_tmp="$(mktemp -d)"
  bin_abs="$(cd "$BIN" && pwd)"
  src_abs="$(cd "$SRC" && pwd)"
  if (cd "$snap_tmp" \
      && "$bin_abs/tlsim" run "$src_abs/examples/guest/hello.s" \
             --snapshot-every 1000 > /dev/null \
      && "$bin_abs/tlsnap" info tlsim-snap-0001.tlsnap > got.txt); then
    # The inventory block: from its "<file>: version" line to the fence.
    awk '/^tlsim-snap-0001\.tlsnap: version /{grab=1} grab && /^```/{exit}
         grab' "$SNAP_DOC" > "$snap_tmp/want.txt"
    diff "$snap_tmp/want.txt" "$snap_tmp/got.txt" >&2 \
      || note "SNAPSHOT_FORMAT.md worked example differs from what its" \
              "recipe prints (tlsnap info, DIGE included)"
    printf '\001' | dd of="$snap_tmp/tlsim-snap-0001.tlsnap" bs=1 seek=8 \
        conv=notrunc 2> /dev/null
    if "$bin_abs/tlsnap" info "$snap_tmp/tlsim-snap-0001.tlsnap" \
           > /dev/null 2> "$snap_tmp/v1.txt" \
       || ! grep -q "INVALID_ARGUMENT.*version 1" "$snap_tmp/v1.txt"; then
      note "tlsnap info did not reject a version-1 snapshot with" \
           "INVALID_ARGUMENT"
    fi
  else
    note "the SNAPSHOT_FORMAT.md recipe failed to run"
  fi
  rm -rf "$snap_tmp"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "ci_docs: FAILED"
  exit 1
fi
echo "ci_docs: all checks passed (links, --help drift, ROADMAP open items: $open_items, snapshot worked example)"
