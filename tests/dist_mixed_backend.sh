#!/bin/sh
# Mixed-backend distributed run: a dist_run coordinator and three worker
# processes on scenarios/dist_bank.scn, with worker 0 forced onto the
# scalar fill_bounded backend (IBA_SIMD=scalar) and the others on the
# host's default. Workers draw each round's bin choices themselves, so
# a cluster that is not uniformly AVX2 must still reproduce the
# single-process golden byte for byte.
#
#   sh tests/dist_mixed_backend.sh <dist_run binary> <repository root>
#
# Exits with the coordinator's status (0 = golden match). Logs go to a
# temporary directory that is removed on exit.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <dist_run binary> <repository root>" >&2
  exit 2
fi
dist_run=$1
root=$2
tmp=$(mktemp -d)
pids=""
cleanup() {
  for pid in $pids; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

# The coordinator needs a fixed port; retry a few if one is taken.
port=0
attempt=0
while [ "$attempt" -lt 5 ]; do
  port=$((20000 + ($$ + attempt * 7919) % 40000))
  "$dist_run" --role coordinator --listen "127.0.0.1:$port" --workers 3 \
    --timeout-ms 30000 --scenario "$root/scenarios/dist_bank.scn" \
    --golden "$root/tests/goldens/dist_bank.artifact" \
    2>"$tmp/coordinator.log" &
  coordinator=$!
  pids="$coordinator"
  tries=0
  while ! grep -q "on port" "$tmp/coordinator.log" &&
        kill -0 "$coordinator" 2>/dev/null && [ "$tries" -lt 100 ]; do
    sleep 0.1
    tries=$((tries + 1))
  done
  if grep -q "on port" "$tmp/coordinator.log"; then break; fi
  kill "$coordinator" 2>/dev/null || true
  wait "$coordinator" 2>/dev/null || true
  pids=""
  attempt=$((attempt + 1))
done
if [ -z "$pids" ]; then
  cat "$tmp/coordinator.log" >&2
  echo "dist_mixed_backend: the coordinator never listened" >&2
  exit 1
fi

IBA_SIMD=scalar "$dist_run" --role worker --connect "127.0.0.1:$port" \
  --index 0 2>"$tmp/worker0.log" &
pids="$pids $!"
for index in 1 2; do
  "$dist_run" --role worker --connect "127.0.0.1:$port" --index "$index" \
    2>"$tmp/worker$index.log" &
  pids="$pids $!"
done

status=0
wait "$coordinator" || status=$?
for pid in $pids; do wait "$pid" 2>/dev/null || true; done
pids=""
cat "$tmp/coordinator.log" "$tmp/worker0.log" "$tmp/worker1.log" \
  "$tmp/worker2.log" >&2
exit "$status"
