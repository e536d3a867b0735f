# Starts the release `serve` binary in the background and waits for it
# to print its SERVE_ADDR line. Source it from the repository root after
# a release build, passing the serve arguments:
#
#   . ci/serve_up.sh --quick --shards 2 --port 0
#
# On success ADDR (host:port) and SERVE_PID are exported; stdout goes to
# serve.out and stderr to serve.log. If the server exits or never
# reports an address within 180 s, serve.log is printed and the calling
# shell exits 1.

rm -f serve.out
./target/release/serve "$@" > serve.out 2> serve.log &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 180); do
  ADDR=$(grep -oP '(?<=SERVE_ADDR=).*' serve.out 2>/dev/null || true)
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 1
done
if [ -z "$ADDR" ]; then
  echo "server never came up"; cat serve.log; exit 1
fi
export ADDR SERVE_PID
