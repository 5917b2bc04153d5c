#!/usr/bin/env bash
# Deterministic corruption fuzz of the checkpoint loader through the
# scenario_run CLI: stop real scenario runs to get checkpoint
# generations, then feed --resume garbage, foreign-format headers and
# valid-CRC control-plane field corruptions. Each corrupt checkpoint is
# placed as B.r<R>.coord of a copy of the pristine generation, and the
# copy's manifest re-commits the corrupt file's body CRC, so a rejection
# can only come from the checkpoint decoder. Each must be REJECTED with a
# clean non-zero exit below 128 (no crash, no signal death, no silent
# acceptance); the pristine generations must still resume. One stale
# case keeps the manifest's CRC, and the manifest must reject a valid
# checkpoint it did not commit. Truncation at every offset, every bit
# flip and trailing bytes are covered in-process by
# tests/corruption_battery_test.cpp.
#
#   scripts/fuzz_checkpoint.sh [build-dir]     # default: build
#
# Exits 0 when every case behaves, 1 otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
scenario_run="$build_dir/examples/scenario_run"

if [ ! -x "$scenario_run" ]; then
  echo "error: $scenario_run not built (cmake --build $build_dir)" >&2
  exit 1
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/iba_fuzz_ckpt.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# seed <scenario> <base> <round>: stop the scenario at <round>, then
# check that the pristine generation resumes to the end (exit 0).
seed() {
  local scn="$1" out="$2" round="$3"
  "$scenario_run" --scenario "$scn" --checkpoint-out "$out" \
    --stop-after "$round" 2>/dev/null
  if [ ! -s "$out.r$round.coord" ]; then
    echo "FAIL: no checkpoint written" >&2
    exit 1
  fi
  if ! "$scenario_run" --scenario "$scn" --resume "$out" \
      >/dev/null 2>&1; then
    echo "FAIL: pristine generation $out rejected" >&2
    exit 1
  fi
  echo "    pristine $(basename "$out") resumes: ok"
}

echo "==> generating seed checkpoints"
fault_scn=tests/scenarios/mass_crash.scn
ckpt="$work/seed.ckpt"
seed "$fault_scn" "$ckpt" 150
# c = 1 past its sweet spot: the controller applies a change before the
# save, so counters, cooldown and policy memory are non-trivial.
control_scn=tests/scenarios/adaptive_sweet_spot.scn
cckpt="$work/control.ckpt"
seed "$control_scn" "$cckpt" 200

fails=0
cases=0

# commit_crc <manifest> <file>: rewrite the manifest's coord-crc as the
# body CRC of <file> (everything after its first line; the whole file
# when it has none) and re-seal the manifest's own header CRC.
commit_crc() {
  python3 - "$1" "$2" <<'PY'
import re, sys, zlib

manifest, coord = sys.argv[1:3]
data = open(coord, 'rb').read()
crc = zlib.crc32(data[data.find(b'\n') + 1:]) & 0xFFFFFFFF
text = open(manifest, 'rb').read()
head, body = text.split(b'\n', 1)
body = re.sub(rb'^coord-crc = \d+$', b'coord-crc = %d' % crc, body,
              flags=re.M)
magic, version = head.split()[:2]
open(manifest, 'wb').write(b'%s %s %d %d\n' % (
    magic, version, zlib.crc32(body) & 0xFFFFFFFF, len(body)) + body)
PY
}

# try <name> <file> <scenario> <seed base> <round> [stale]: a copy of the
# seed's generation with <file> as its round-<round> checkpoint, its CRC
# committed unless "stale", must fail to resume with an exit code in
# [1, 128) (no silent acceptance, not killed by a signal). A stale case
# must also be rejected by the manifest.
try() {
  local name="$1" file="$2" scn="$3" pristine="$4" round="$5" stale="${6:-}"
  local rc=0 dir="$work/case$cases"
  cases=$((cases + 1))
  mkdir -p "$dir"
  cp "$pristine.manifest" "$dir/B.manifest"
  cp "$pristine.r$round.coord.progress" "$dir/B.r$round.coord.progress"
  cp "$file" "$dir/B.r$round.coord"
  [ -n "$stale" ] || commit_crc "$dir/B.manifest" "$file"
  "$scenario_run" --scenario "$scn" --resume "$dir/B" >/dev/null \
    2>"$dir/err" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL: $name was accepted" >&2
    fails=$((fails + 1))
  elif [ "$rc" -ge 128 ]; then
    echo "FAIL: $name crashed the loader (exit $rc)" >&2
    fails=$((fails + 1))
  elif [ -n "$stale" ] && ! grep -q "the manifest committed" "$dir/err"; then
    echo "FAIL: $name was not rejected by the manifest" >&2
    fails=$((fails + 1))
  fi
}

echo "==> garbage and format attacks"
printf 'not a checkpoint\n' > "$work/garbage"
try "plain-text garbage" "$work/garbage" "$fault_scn" "$ckpt" 150
head -c 512 /dev/zero > "$work/zeros"
try "all-zero file" "$work/zeros" "$fault_scn" "$ckpt" 150
printf 'iba-checkpoint 1 0 0\n' > "$work/downlevel"
try "downlevel v1 header" "$work/downlevel" "$fault_scn" "$ckpt" 150
printf 'iba-checkpoint 3 0 999999999\n' > "$work/liar"
try "length-lying header" "$work/liar" "$fault_scn" "$ckpt" 150
# A v2 header over an intact body (CRC and length still valid): format
# v2 predates the control plane and is no longer loaded.
sed '1s/^iba-checkpoint 3 /iba-checkpoint 2 /' "$ckpt.r150.coord" > "$work/v2"
try "v2 header" "$work/v2" "$fault_scn" "$ckpt" 150

# v3 control-plane corruptions. Flipping body bytes alone is caught by
# the CRC before the parser ever sees the field, so these cases rewrite
# the header with a freshly computed CRC-32 (same IEEE polynomial as
# zlib) — the mutation must then be rejected by the *named-field*
# validation layer, not the checksum.
mutate() {
  python3 - "$1" "$2" "$3" <<'PY'
import sys, zlib

mode, src, dst = sys.argv[1:4]
data = open(src, 'rb').read()
body = data[data.index(b'\n') + 1:]

if mode == 'truncate-estimator':
    # Cut the body off 20 bytes into the estimator ring dump.
    at = body.index(b'control-estimator')
    body = body[:body.index(b'\n', at) + 20]
elif mode == 'policy-oob':
    # Config token 14 is the control policy enum; 9 is out of range.
    lines = body.split(b'\n')
    for i, line in enumerate(lines):
        if line.startswith(b'config '):
            toks = line.split()
            assert len(toks) == 20, toks
            toks[14] = b'9'
            lines[i] = b' '.join(toks)
            break
    body = b'\n'.join(lines)
elif mode == 'cooldown-flip':
    # Flip bit 40 of cooldown_until: the loader bounds it by
    # round + cooldown, so the inflated value must be rejected.
    at = body.index(b'control-controller')
    eol = body.index(b'\n', at)
    toks = body[at:eol].split()
    toks[1] = str(int(toks[1]) ^ (1 << 40)).encode()
    body = body[:at] + b' '.join(toks) + body[eol:]
else:
    sys.exit('unknown mutate mode: ' + mode)

header = b'iba-checkpoint 3 %d %d\n' % (
    zlib.crc32(body) & 0xFFFFFFFF, len(body))
open(dst, 'wb').write(header + body)
PY
}

echo "==> v3 control-plane field corruptions (CRC recomputed)"
mutate truncate-estimator "$cckpt.r200.coord" "$work/est_trunc"
try "truncated estimator block (valid CRC)" "$work/est_trunc" \
  "$control_scn" "$cckpt" 200
mutate policy-oob "$cckpt.r200.coord" "$work/policy_oob"
try "control policy id out of range (valid CRC)" "$work/policy_oob" \
  "$control_scn" "$cckpt" 200
mutate cooldown-flip "$cckpt.r200.coord" "$work/cooldown_flip"
try "cooldown_until bit flip (valid CRC)" "$work/cooldown_flip" \
  "$control_scn" "$cckpt" 200

echo "==> a valid checkpoint the manifest did not commit (stale CRC)"
"$scenario_run" --scenario "$fault_scn" --seed 2 --checkpoint-out \
  "$work/other.ckpt" --stop-after 150 2>/dev/null
try "another seed's checkpoint (stale manifest CRC)" \
  "$work/other.ckpt.r150.coord" "$fault_scn" "$ckpt" 150 stale

echo "==> $cases corrupt variants tested, $fails misbehaved"
if [ "$fails" -ne 0 ]; then
  exit 1
fi
echo "fuzz_checkpoint: all corrupt checkpoints cleanly rejected"
