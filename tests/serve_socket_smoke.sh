#!/usr/bin/env bash
# End-to-end socket serving smoke test, run by ctest in both the Release
# and ASan+UBSan CI jobs:
#
#   1. hmd_train writes two model families into a registry directory,
#      plus a replacement RF artifact kept outside it as swap material.
#   2. hmd_serve hosts them over TCP (--listen on an ephemeral port,
#      --refresh-ms=200); the port is parsed from its "listening on"
#      line.
#   3. hmd_client drives wire-protocol traffic with --verify: every
#      response must be bit-identical to a direct score() of the same
#      artifact — for the default detection mask, for the full estimate
#      mask under an explicit uncertainty mode, and for the second model
#      key (per-model routing).
#   4. An unknown model key must come back as typed error frames (client
#      exits 1), and the connection must survive to serve a valid
#      request afterwards (the client run itself proves this: errors are
#      counted, not fatal).
#   5. The RF artifact is overwritten mid-serve with the replacement
#      (temp file + rename publish). Within the refresh cadence a
#      --verify run against the NEW artifact must reach bit-parity —
#      proof the hot-swap landed and in-flight serving never broke.
#   6. SIGTERM: the server must drain, print its traffic/batcher/served
#      summaries, and exit 0.
#   7. Without --threads, hmd_serve runs as many threads over 8 keys as
#      over 1: the default pool width adds no idle workers per model.
#
# usage: serve_socket_smoke.sh <hmd_train> <hmd_serve> <hmd_client>
set -euo pipefail

train_bin=$1
serve_bin=$2
client_bin=$3

source "$(dirname "${BASH_SOURCE[0]}")/serve_lib.sh"

workdir=$(mktemp -d serve_socket_smoke.XXXXXX)
trap 'kill_server; rm -rf "$workdir"' EXIT

models="$workdir/models"
mkdir -p "$models"

common=(--dataset=dvfs --scale=0.1 --threads=1)

"$train_bin" "${common[@]}" --model=rf --members=5 \
    --out="$models/dvfs_RF_M5.hmdf"
"$train_bin" "${common[@]}" --model=lr --members=5 \
    --out="$models/dvfs_LR_M5.hmdf"
# Swap material: a different model *family* so its scores genuinely
# differ from the RF's (two RF ensembles can agree bit-for-bit on an
# easy slice, which would make the post-swap parity check vacuous).
# Lives outside the registry dir (no .hmdf suffix) so the scan never
# sees it.
"$train_bin" "${common[@]}" --model=svm --members=9 \
    --out="$workdir/replacement.artifact"

start_server "$workdir/server.log" --models="$models" --threads=1 \
    --refresh-ms=200

grep -q "serving  2 model(s)" "$workdir/server.log" || {
  echo "FAIL: expected 2 models from the registry" >&2; exit 1; }

# Every load line must name the kernel backend serving at load (arena
# for these mmap-loaded bundles; stream-fallback when zero-copy is
# unavailable; jit only once a background compile has installed, which
# the `kernel` line logs).
for key in dvfs_RF_M5 dvfs_LR_M5; do
  grep -Eq "^model    $key +.*, kernel (jit|arena|stream-fallback)," \
      "$workdir/server.log" || {
    echo "FAIL: load line for $key does not report a kernel backend" >&2
    cat "$workdir/server.log" >&2
    exit 1; }
done

connect=(--connect=127.0.0.1:"$port" "${common[@]}" --rows=4)

# Leg 1: detection mask, concurrent pipelined connections, bit-parity
# against the artifact being served.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=200 \
    --connections=4 --pipeline=2 --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: detection-mask traffic not bit-identical" >&2; exit 1; }

# Leg 2: full estimate mask under an explicit uncertainty mode.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=100 \
    --outputs=estimate --mode=soft_entropy \
    --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: estimate-mask traffic not bit-identical" >&2; exit 1; }

# Leg 2b: the same estimate-mask traffic on the fast accuracy tier. The
# --verify oracle is always exact-tier, so parity here means every
# response sat inside the documented ULP band (integer columns
# bit-identical) — the over-the-wire accuracy contract, end to end.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=100 \
    --outputs=estimate --mode=soft_entropy --accuracy=fast \
    --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: fast-tier traffic outside the contract band" >&2; exit 1; }
grep -q "accuracy=fast" <<<"$out" || {
  echo "FAIL: client did not report the fast tier" >&2; exit 1; }

# Leg 3: the other model key — per-model routing in the batcher.
out=$("$client_bin" "${connect[@]}" --model=dvfs_LR_M5 --requests=100 \
    --connections=2 --verify="$models/dvfs_LR_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: second model key not bit-identical" >&2; exit 1; }

# Leg 4: unknown model key -> typed error frames, client exit 1, and the
# server must keep running (checked right after).
rc=0
out=$("$client_bin" "${connect[@]}" --model=nope --requests=5) || rc=$?
echo "$out"
[ "$rc" -eq 1 ] || {
  echo "FAIL: unknown-model traffic must exit 1, got $rc" >&2; exit 1; }
grep -q "unknown-model" <<<"$out" || {
  echo "FAIL: expected typed unknown-model error frames" >&2; exit 1; }
kill -0 "$server_pid" 2>/dev/null || {
  echo "FAIL: server died on bad traffic" >&2; exit 1; }

# Leg 4b: bogus-key flood. Unknown keys now bounce off the registry's
# cuckoo-filter front door (no shard lock, no load attempt), but the
# wire contract must not move: every distinct bogus key still yields the
# same typed unknown-model error frames, and the server keeps serving.
for bogus in ghost_0 ghost_1 ghost_2 ghost_3; do
  rc=0
  out=$("$client_bin" "${connect[@]}" --model="$bogus" --requests=5) || rc=$?
  [ "$rc" -eq 1 ] || {
    echo "FAIL: flood key $bogus must exit 1, got $rc" >&2; exit 1; }
  grep -q "unknown-model" <<<"$out" || {
    echo "FAIL: flood key $bogus lost the typed error" >&2; exit 1; }
done
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=20 \
    --verify="$models/dvfs_RF_M5.hmdf")
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: serving broke after the bogus-key flood" >&2; exit 1; }

# Leg 5: publish the replacement over the RF artifact (temp + rename,
# the atomic-publish idiom) and require a --verify run against the NEW
# artifact to reach bit-parity within the 200 ms refresh cadence.
cp "$workdir/replacement.artifact" "$models/.swap_tmp"
mv "$models/.swap_tmp" "$models/dvfs_RF_M5.hmdf"

swapped=no
for _ in $(seq 1 50); do
  if "$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=50 \
      --verify="$models/dvfs_RF_M5.hmdf" \
      >"$workdir/client_swap.log" 2>&1; then
    swapped=yes
    break
  fi
  sleep 0.2
done
cat "$workdir/client_swap.log"
[ "$swapped" = yes ] || {
  echo "FAIL: hot-swapped artifact never reached bit-parity" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
reload_seen=no
for _ in $(seq 1 25); do
  if grep -q "refresh  reloaded dvfs_RF_M5" "$workdir/server.log"; then
    reload_seen=yes
    break
  fi
  sleep 0.2
done
[ "$reload_seen" = yes ] || {
  echo "FAIL: refresh() did not report the reload" >&2
  cat "$workdir/server.log" >&2
  exit 1; }

# Leg 6: SIGTERM -> drain, summaries, exit 0.
stop_server
cat "$workdir/server.log"
[ "$server_rc" -eq 0 ] || {
  echo "FAIL: SIGTERM shutdown must exit 0, got $server_rc" >&2; exit 1; }
grep -q "^traffic  " "$workdir/server.log" || {
  echo "FAIL: missing traffic summary" >&2; exit 1; }
grep -q "^batcher  " "$workdir/server.log" || {
  echo "FAIL: missing batcher summary" >&2; exit 1; }
grep -q "^served   " "$workdir/server.log" || {
  echo "FAIL: missing served summary" >&2; exit 1; }
# The end-of-run health summary must carry the kernel backend from the
# registry snapshot (the same field ModelHealth exposes to callers).
for key in dvfs_RF_M5 dvfs_LR_M5; do
  grep -Eq "^health   $key +.*, kernel (jit|arena|stream-fallback)," \
      "$workdir/server.log" || {
    echo "FAIL: health summary for $key missing kernel backend" >&2
    cat "$workdir/server.log" >&2
    exit 1; }
done
# Accuracy summary: the tier counters must show both the exact traffic
# and leg 2b's fast-tier requests, plus the active simd ISA level.
grep -Eq "^accuracy [0-9]+ exact-tier, [1-9][0-9]* fast-tier request\(s\), simd (scalar|avx2|avx512)" \
    "$workdir/server.log" || {
  echo "FAIL: missing or malformed accuracy summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
# Fleet summary: the filter front door must report the bogus-key flood
# as rejects, and the residency line must account for both models.
grep -Eq "^fleet    2 key\(s\) in [0-9]+ shard\(s\), filter .* reject\(s\)" \
    "$workdir/server.log" || {
  echo "FAIL: missing or malformed fleet summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
grep -Eq "^resident .* across 2 model\(s\)" "$workdir/server.log" || {
  echo "FAIL: missing or malformed residency summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }

# Leg 7: the default --threads. A served batch is one 256-row tile, so
# pool workers beyond the serving thread never run; hmd_serve without
# --threads must start the same number of threads for 1 key as for 8
# (hard links of one artifact). --jit=off keeps the background compile
# worker out of the count.
for n in 1 8; do
  mkdir -p "$workdir/threads_$n"
  for i in $(seq 1 "$n"); do
    ln "$workdir/replacement.artifact" "$workdir/threads_$n/key_$i.hmdf"
  done
  start_server "$workdir/threads_$n.log" --models="$workdir/threads_$n" \
      --jit=off
  grep -q "serving  $n model(s)" "$workdir/threads_$n.log" || {
    echo "FAIL: expected $n model(s) from the registry" >&2
    cat "$workdir/threads_$n.log" >&2
    exit 1; }
  tasks[$n]=$(ls "/proc/$server_pid/task" | wc -l)
  stop_server
done
echo "default --threads: ${tasks[1]} thread(s) over 1 key, ${tasks[8]} over 8"
[ "${tasks[1]}" -eq "${tasks[8]}" ] || {
  echo "FAIL: the default --threads starts pool workers per model" >&2
  exit 1; }

echo "serve_socket_smoke: OK"
