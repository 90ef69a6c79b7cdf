#!/usr/bin/env bash
# End-to-end train-once / serve-many smoke test, run by ctest in both the
# Release and ASan+UBSan CI jobs. Every round serves over the socket
# front-end (hmd_serve --listen) and checks responses with
# `hmd_client --verify` — bit-identical to a direct score() of the artifact:
#
#   1. hmd_train writes two model families (RF and LR) into a registry
#      directory, plus an SVM artifact kept outside it as swap material.
#   2. --mmap=on: both families load as zero-copy engines and serve with
#      parity. The SVM artifact is then published over the LR key (temp
#      file + rename); within the refresh cadence the key must answer
#      bit-identically to the SVM artifact — a hot-swap to a new family on
#      the mapped path — and refresh() must log the reload.
#   3. --mmap=off: the same registry serves through the full-copy read
#      path (load=stream, no zero-copy engine), with parity.
#   4. --jit=on and --jit=off: both keys serve with parity under either
#      kernel policy. On a JIT build the forest serves the arena first and
#      the `kernel ... arena -> jit` line must appear before the --jit=on
#      traffic, so that leg verifies native kernels; off must never select
#      them. A server stretched mid-compile (the jit.tree failpoint) must
#      still serve with parity and exit 0 on SIGTERM.
#   5. A bit-flipped artifact (hmd_faultgen) is skipped at startup with a
#      typed checksum error while its healthy sibling keeps serving; with
#      every artifact corrupt, the server exits 3 (nothing servable).
#
# Every server must shut down cleanly (exit 0) on SIGTERM.
#
# usage: serve_smoke.sh <hmd_train> <hmd_serve> <hmd_faultgen> <hmd_client>
set -euo pipefail

train_bin=$1
serve_bin=$2
faultgen_bin=$3
client_bin=$4

source "$(dirname "${BASH_SOURCE[0]}")/serve_lib.sh"

workdir=$(mktemp -d serve_smoke.XXXXXX)
trap 'kill_server; rm -rf "$workdir"' EXIT

models="$workdir/models"
mkdir -p "$models"
log="$workdir/server.log"

common=(--dataset=dvfs --scale=0.1 --threads=1)

"$train_bin" "${common[@]}" --model=rf --members=5 \
    --out="$models/dvfs_RF_M5.hmdf"
"$train_bin" "${common[@]}" --model=lr --members=5 \
    --out="$models/dvfs_LR_M5.hmdf"
# Swap material lives outside the registry dir (and without the .hmdf
# suffix) so the directory scan never picks it up as a third model.
"$train_bin" "${common[@]}" --model=svm --members=9 \
    --out="$workdir/swap_svm.artifact"

# verify KEY ARTIFACT: wire traffic for KEY must match ARTIFACT bit for bit.
verify() {
  local out rc=0
  out=$("$client_bin" --connect=127.0.0.1:"$port" "${common[@]}" --rows=4 \
      --model="$1" --requests=50 --connections=2 --verify="$2") || rc=$?
  echo "$out"
  [ "$rc" -eq 0 ] && grep -q "parity   ok" <<<"$out" || {
    echo "FAIL: $1 traffic not bit-identical to $2 (exit $rc)" >&2; exit 1; }
}

# stop: SIGTERM the server, which must drain and exit 0.
stop() {
  stop_server
  cat "$log"
  [ "$server_rc" -eq 0 ] || {
    echo "FAIL: SIGTERM shutdown must exit 0, got $server_rc" >&2; exit 1; }
}

# Round 1: the mapped path. Engines must report zero-copy residency, and
# a republished artifact of another family must hot-swap in.
start_server "$log" --models="$models" --threads=1 --refresh-ms=100 --mmap=on

grep -q "serving  2 model(s), load=mmap" "$log" || {
  echo "FAIL: expected 2 models on --mmap=on" >&2; cat "$log" >&2; exit 1; }
grep -q "flat_forest.*zero-copy" "$log" || {
  echo "FAIL: RF family not served zero-copy" >&2; exit 1; }
grep -q "flat_linear_lr.*zero-copy" "$log" || {
  echo "FAIL: LR family not served zero-copy" >&2; exit 1; }
verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf"
verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"

cp "$workdir/swap_svm.artifact" "$models/.swap_tmp"
mv "$models/.swap_tmp" "$models/dvfs_LR_M5.hmdf"
swapped=no
for _ in $(seq 1 50); do
  if "$client_bin" --connect=127.0.0.1:"$port" "${common[@]}" --rows=4 \
      --model=dvfs_LR_M5 --requests=20 --verify="$workdir/swap_svm.artifact" \
      >"$workdir/client_swap.log" 2>&1; then
    swapped=yes
    break
  fi
  sleep 0.1
done
cat "$workdir/client_swap.log"
[ "$swapped" = yes ] || {
  echo "FAIL: LR key never served the hot-swapped SVM artifact" >&2
  cat "$log" >&2
  exit 1; }
grep -q "refresh  reloaded dvfs_LR_M5" "$log" || {
  echo "FAIL: refresh() did not report the hot-swap" >&2; exit 1; }
stop

# Round 2: --mmap=off serves the restored registry through the full-copy
# read path (no zero-copy engines).
"$train_bin" "${common[@]}" --model=lr --members=5 \
    --out="$models/dvfs_LR_M5.hmdf"
start_server "$log" --models="$models" --threads=1 --mmap=off

grep -q "serving  2 model(s), load=stream" "$log" || {
  echo "FAIL: --mmap=off not honoured" >&2; cat "$log" >&2; exit 1; }
grep -q "zero-copy" "$log" && {
  echo "FAIL: stream path must not produce zero-copy engines" >&2; exit 1; }
verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf"
verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"
stop

# Round 3: both kernel policies serve both keys with parity. (A build
# without the JIT reports jit=unavailable and falls back to the arena
# under --jit=on, which is the contract; --jit=off must never pick the
# native kernels.)
native_line='^kernel +dvfs_RF_M5 +[a-z-]+ -> jit \(compile [0-9.]+ ms\)$'
for policy in on off; do
  start_server "$log" --models="$models" --threads=1 --jit="$policy" \
      --refresh-ms=50
  if [ "$policy" = on ] && grep -q ", jit=on," "$log"; then
    # The compile runs in the background; wait for the native kernels.
    for _ in $(seq 1 300); do
      grep -qE "$native_line" "$log" && break
      sleep 0.1
    done
    grep -qE "$native_line" "$log" || {
      echo "FAIL: native kernels never installed under --jit=on" >&2
      cat "$log" >&2
      exit 1; }
  fi
  verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf"
  verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"
  stop
  if [ "$policy" = off ] && grep -qE "kernel jit|-> jit" "$log"; then
    echo "FAIL: --jit=off selected native kernels" >&2; exit 1
  fi
done

# SIGTERM with a compile in flight: every tree boundary of the compile
# sleeps 1 s, so the forest serves the arena throughout, and shutdown
# cancels the compile at its next tree boundary.
export HMD_FAILPOINTS="jit.tree=delay:1000"
start_server "$log" --models="$models" --threads=1 --jit=on --refresh-ms=50
unset HMD_FAILPOINTS
verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf"
stop
if grep -q ", jit=on," "$log" && grep -q -- "-> jit" "$log"; then
  echo "FAIL: the stretched compile finished before SIGTERM" >&2; exit 1
fi

# Round 4: corrupt the RF artifact (one flipped engine bit). The server
# must skip it with a typed checksum error and keep serving the LR
# sibling — one bad artifact never takes down a healthy one.
"$faultgen_bin" bitflip "$models/dvfs_RF_M5.hmdf" --section=engine \
    --offset=-1 >/dev/null
start_server "$log" --models="$models" --threads=1

grep -q "skipping dvfs_RF_M5: load error \[checksum\]" "$log" || {
  echo "FAIL: corrupt artifact not rejected with a typed checksum error" >&2
  cat "$log" >&2
  exit 1; }
grep -q "serving  1 model(s)" "$log" || {
  echo "FAIL: healthy sibling not served past the corrupt artifact" >&2
  exit 1; }
verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"
stop

# With *every* artifact corrupt there is nothing to serve: exit 3 before
# listening, the load/integrity code — distinct from usage (2) and
# runtime failure (1).
"$faultgen_bin" bitflip "$models/dvfs_LR_M5.hmdf" --section=scaler \
    --offset=-1 >/dev/null
rc=0
timeout 60 "$serve_bin" --models="$models" --threads=1 \
    --listen=127.0.0.1:0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || {
  echo "FAIL: nothing-servable must exit 3, got $rc" >&2; exit 1; }

echo "serve_smoke: OK"
