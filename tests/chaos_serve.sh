#!/usr/bin/env bash
# Chaos drill: hmd_serve --listen must answer bit-identical traffic
# through a swap storm of corrupt publishes.
#
#   1. Train two model families into a registry directory and keep a copy
#      of the RF artifact as the known-good version.
#   2. Serve them over the socket front-end with a fast refresh cadence.
#      While a background hmd_client streams verified traffic at the RF
#      key, a storm publishes damaged variants of its artifact over the
#      real name via hmd_faultgen: checksum-breaking bit flips, torn
#      half-files, truncated tails — each a fresh inode, exactly like a
#      real bad publish. After every damaged publish one more verified
#      client run lands while the damage is live.
#   3. Every client run must be bit-identical to the good artifact
#      (`hmd_client --verify`, 0 error frames): each rejected replacement
#      kept the last-good snapshot serving. The health log must record the
#      degradation, and SIGTERM must still exit 0.
#
# usage: chaos_serve.sh <hmd_train> <hmd_serve> <hmd_faultgen> <hmd_client>
set -euo pipefail

train_bin=$1
serve_bin=$2
faultgen_bin=$3
client_bin=$4

source "$(dirname "${BASH_SOURCE[0]}")/serve_lib.sh"

workdir=$(mktemp -d chaos_serve.XXXXXX)
client_pid=""
trap 'kill_server; [ -n "$client_pid" ] && kill "$client_pid" 2>/dev/null
      rm -rf "$workdir"' EXIT

models="$workdir/models"
mkdir -p "$models"

common=(--dataset=dvfs --scale=0.1 --threads=1)

"$train_bin" "${common[@]}" --model=rf --members=5 \
    --out="$models/dvfs_RF_M5.hmdf"
"$train_bin" "${common[@]}" --model=lr --members=5 \
    --out="$models/dvfs_LR_M5.hmdf"

target="$models/dvfs_RF_M5.hmdf"
good="$workdir/good.hmdf"
cp "$target" "$good"

# Startup loads must complete clean — the drill is about *replacement*
# failures, which is why the storm waits for the listening line.
log="$workdir/chaos.log"
start_server "$log" --models="$models" --threads=1 --refresh-ms=50

connect=(--connect=127.0.0.1:"$port" "${common[@]}" --rows=4
         --model=dvfs_RF_M5 --verify="$good")

# Background traffic spanning the storm: open-loop, so requests keep
# arriving through every publish, reload attempt and health transition.
"$client_bin" "${connect[@]}" --rate=400 --requests=1200 --connections=2 \
    >"$workdir/stream.log" 2>&1 &
client_pid=$!
for _ in $(seq 1 300); do
  grep -q '^client' "$workdir/stream.log" 2>/dev/null && break
  kill -0 "$client_pid" 2>/dev/null || break
  sleep 0.1
done

# The storm: eight damaged publishes over the RF artifact, each preceded
# by a good publish so hmd_faultgen always has an intact section table to
# steer by (and so the registry sees a stream of distinct inodes, like a
# retrain pipeline gone wrong).
for i in $(seq 1 8); do
  "$faultgen_bin" publish "$good" "$target" >/dev/null
  case $((i % 3)) in
    0) "$faultgen_bin" torn "$target" >/dev/null ;;
    1) "$faultgen_bin" bitflip "$target" --section=engine \
           --offset=$((i * 37)) --bit=$((i % 8)) >/dev/null ;;
    2) "$faultgen_bin" truncate "$target" --bytes=$((16 + i)) >/dev/null ;;
  esac
  sleep 0.2
  rc=0
  out=$("$client_bin" "${connect[@]}" --requests=20) || rc=$?
  [ "$rc" -eq 0 ] && grep -q "parity   ok" <<<"$out" || {
    echo "$out"
    echo "FAIL: traffic diverged from the good artifact during publish $i" \
        "(exit $rc)" >&2
    cat "$log" >&2
    exit 1
  }
done
# The storm passes; the last publish is good again.
"$faultgen_bin" publish "$good" "$target" >/dev/null

rc=0
wait "$client_pid" || rc=$?
client_pid=""
cat "$workdir/stream.log"
[ "$rc" -eq 0 ] && grep -q "parity   ok" "$workdir/stream.log" || {
  echo "FAIL: streamed traffic diverged from the good artifact (exit $rc)" >&2
  exit 1
}
# The untouched sibling serves on, too.
rc=0
out=$("$client_bin" --connect=127.0.0.1:"$port" "${common[@]}" --rows=4 \
    --model=dvfs_LR_M5 --requests=20 --verify="$models/dvfs_LR_M5.hmdf") \
    || rc=$?
echo "$out"
[ "$rc" -eq 0 ] || {
  echo "FAIL: healthy sibling broke during the storm (exit $rc)" >&2; exit 1; }

stop_server
cat "$log"
[ "$server_rc" -eq 0 ] || {
  echo "FAIL: chaos run exited $server_rc (must degrade, never crash)" >&2
  exit 1
}
grep -Eq '^traffic .*, 0 error frame\(s\)' "$log" || {
  echo "FAIL: the server answered error frames during the storm" >&2
  exit 1
}
grep -Eq '^health .* -> (degraded|quarantined)' "$log" || {
  echo "FAIL: no degradation recorded — the storm never landed" >&2
  exit 1
}

echo "chaos_serve: OK"
