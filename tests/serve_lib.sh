# Shared by the socket drills (serve_smoke.sh, serve_socket_smoke.sh,
# chaos_serve.sh): start `hmd_serve --listen` on an ephemeral loopback
# port and stop it again. Source it after setting $serve_bin.
#
#   start_server LOG [hmd_serve flags...]
#       Launch the server in the background with stdout+stderr in LOG and
#       block until it prints its "listening on" line. Sets $server_pid and
#       $port; fails the drill if the server dies or never reports a port.
#   stop_server
#       SIGTERM (drain, print summaries), wait, and set $server_rc.
#   kill_server
#       Best-effort kill for EXIT traps; a no-op once stop_server ran.

server_pid=""
port=""
server_rc=0

start_server() {
  local log=$1
  shift
  "$serve_bin" --listen=127.0.0.1:0 "$@" >"$log" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 300); do
    port=$(grep -oP 'listening on 127\.0\.0\.1:\K[0-9]+' "$log" || true)
    [ -n "$port" ] && return 0
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "FAIL: server never reported its port" >&2
  cat "$log" >&2
  exit 1
}

stop_server() {
  kill -TERM "$server_pid"
  server_rc=0
  wait "$server_pid" || server_rc=$?
  server_pid=""
}

kill_server() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
}
