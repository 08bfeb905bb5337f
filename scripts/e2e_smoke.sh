#!/usr/bin/env bash
# End-to-end serving smoke: build geeserve + geeload, start the HTTP
# serving stack on a free port, drive a short closed-loop load — the
# writer/reader mix plus batched reads, approximate (IVF) neighbor
# queries, and a replica follower living off /v1/delta — assert
# non-zero applied ops, that the post-load recall@10 of the indexed
# (approx mode) answers against the exact scan is exactly 1.000, that
# the replica ends bit-identical to the primary's snapshot sections
# after churn, that a second load over the binary wire format also verifies
# bit-identical, that every delta either leg's replica read was a binary
# frame (a delta has no JSON form), and check a clean graceful shutdown
# on SIGTERM. The
# observability legs scrape /metrics (grammar-valid Prometheus text,
# request counters reflecting the load, the coalescer queue-depth
# gauge) and check pprof is absent by default but serves under -pprof.
set -euo pipefail

cd "$(dirname "$0")/.."

# The teeth of every replica leg, one marker whatever the shard count:
# after churn the delta-fed follower must match every shard's snapshot
# section float for float at a converged epoch vector (geeload exits
# non-zero otherwise, and prints this line only after the comparison).
replica_verified() {
  grep -Eq 'replica verify OK: .* bit-identical to [0-9]+ shard sections at epoch vector' "$1"
}

# A server's /metrics must name its shard count and carry the shard
# label dimension on every per-shard series — one wire contract, so the
# one-shard legs assert shard="0" exactly as the 4-shard leg asserts
# 0..3.
shard_series() {  # file, shard count
  grep -Eq "^gee_router_shards $2\$" "$1" || return 1
  for i in $(seq 0 $(($2 - 1))); do
    grep -Eq "^gee_coalescer_queue_depth\{shard=\"$i\"\} " "$1" || return 1
  done
}

bin=$(mktemp -d)
log=$(mktemp -d)
# Every exit, passing or failing, stops the named servers and removes
# the binaries and logs; a failure prints what it needs from $log
# before it exits, so the trap runs after that output.
cleanup() {
  kill "$@" 2>/dev/null || true
  rm -rf "$bin" "$log"
}
trap cleanup EXIT
go build -o "$bin/geeserve" ./cmd/geeserve
go build -o "$bin/geeload" ./cmd/geeload

"$bin/geeserve" -serve 127.0.0.1:0 -n 5000 -k 5 \
  >"$log/serve.out" 2>"$log/serve.err" &
pid=$!
trap 'cleanup "$pid"' EXIT

# The server prints its bound address once listening (":0" = free port).
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^# serving HTTP on //p' "$log/serve.err" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "FAIL: server never reported its address" >&2
  cat "$log/serve.err" >&2
  exit 1
fi
echo "server up on $addr"

# Gate the load on readiness, not liveness: /readyz answers 200 only
# once the coalescer accepts writes and an epoch has published, so
# there is no need to sleep-and-hope before driving traffic.
ready=""
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz")
  if [ "$code" = "200" ]; then ready=yes; break; fi
  sleep 0.1
done
if [ -z "$ready" ]; then
  echo "FAIL: /readyz never answered 200" >&2
  curl -s "http://$addr/readyz" >&2 || true
  exit 1
fi
curl -fsS "http://$addr/healthz"
echo

# -edge-block keeps most writer edges inside a planted block so the
# embedding clusters, as the served embeddings the index is built for do.
"$bin/geeload" -addr "http://$addr" -duration 2s -writers 3 -readers 3 -batch 32 \
  -edge-block 0.9 -batch-readers 1 -read-batch 16 \
  -neighbor-readers 1 -neighbor-k 10 -neighbor-mode approx -recall-queries 50 \
  -replicas 1 -replica-sync 20ms -replica-verify \
  -metrics-url "http://$addr/metrics" \
  -traces-url "http://$addr/debug/traces" \
  | tee "$log/load.out"

if ! grep -Eq 'ingested [1-9][0-9]* ops' "$log/load.out"; then
  echo "FAIL: geeload acknowledged no ops" >&2
  exit 1
fi
if ! grep -Eq 'batched reads: [1-9][0-9]* requests' "$log/load.out"; then
  echo "FAIL: no batched reads completed" >&2
  exit 1
fi
if ! grep -Eq 'neighbor queries: [1-9][0-9]* top-10 by l2 \(approx\)' "$log/load.out"; then
  echo "FAIL: no approx neighbor queries completed" >&2
  exit 1
fi
# The index must actually have been exercised (not the small-n
# served-exact degenerate path), and its answers are exact: recall@10
# against the exact scan of the same epoch is 1.000.
recall=$(sed -n 's/^approx neighbor recall@10: \([0-9.]*\) over .*/\1/p' "$log/load.out" | head -1)
if [ -z "$recall" ]; then
  echo "FAIL: no recall@10 figure reported (served-exact fallback or missing measurement)" >&2
  exit 1
fi
if ! awk -v r="$recall" 'BEGIN { exit !(r == 1) }'; then
  echo "FAIL: approx recall@10 = $recall, want 1.000" >&2
  exit 1
fi
echo "recall@10 = $recall"
if ! grep -Eq 'replica 0: epoch [1-9][0-9]*, [1-9][0-9]* syncs' "$log/load.out"; then
  echo "FAIL: the replica never synced" >&2
  exit 1
fi
if ! replica_verified "$log/load.out"; then
  echo "FAIL: replica not bit-identical to the primary's snapshot sections" >&2
  exit 1
fi
if ! curl -fsS "http://$addr/statsz" | grep -Eq '"Inserts":[1-9][0-9]*'; then
  echo "FAIL: server reports zero applied inserts" >&2
  exit 1
fi
# geeload's own end-of-run scrape must have reported server-side
# latencies (it exits non-zero on a scrape/parse failure).
if ! grep -q 'server metrics' "$log/load.out"; then
  echo "FAIL: geeload -metrics-url reported no server metrics" >&2
  exit 1
fi

# Observability leg: /metrics serves a non-empty exposition in which
# every line is either a HELP/TYPE comment or a sample matching the
# Prometheus text grammar, the request counters reflect the load just
# driven, and the per-shard series (here: the one shard) are present.
curl -fsS "http://$addr/metrics" >"$log/metrics.out"
if ! [ -s "$log/metrics.out" ]; then
  echo "FAIL: /metrics served an empty body" >&2
  exit 1
fi
# The label block is matched greedily (.*\}): label *values* may
# contain braces (route="GET /v1/embedding/{v}").
grammar='^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$'
if grep -Evq "$grammar" "$log/metrics.out"; then
  echo "FAIL: /metrics lines fail the text-format grammar:" >&2
  grep -Ev "$grammar" "$log/metrics.out" | head >&2
  exit 1
fi
if ! grep -Eq 'gee_http_requests_total\{code="200",route="POST /v1/edges"\} [1-9]' "$log/metrics.out"; then
  echo "FAIL: /metrics shows no acked POST /v1/edges requests after the load" >&2
  exit 1
fi
if ! shard_series "$log/metrics.out" 1; then
  echo "FAIL: /metrics is missing gee_router_shards 1 or the shard=\"0\" queue-depth gauge" >&2
  exit 1
fi
if ! grep -Eq '^gee_dyn_publish_seconds_count\{shard="0"\} [1-9]' "$log/metrics.out"; then
  echo "FAIL: /metrics shows no publishes after the load" >&2
  exit 1
fi
echo "metrics exposition OK ($(wc -l <"$log/metrics.out") lines)"

# Tracing leg: the flight recorder must have retained a write trace
# decomposed into the five write stages, geeload's -traces-url
# report must have printed the slowest write's breakdown, the
# per-stage histograms must have counted the acked writes, a write
# sent under a known X-Gee-Trace id must be findable by that id, and
# the >=1ms shelf must hold a write (the coalescer's 2 ms window puts
# every acked write there).
tid=00c27e5a93f1b204
curl -fsS -X POST -H "X-Gee-Trace: $tid" -d '{"edges":[{"u":1,"v":2}]}' \
  "http://$addr/v1/edges" >/dev/null
curl -fsS -G --data-urlencode 'name=POST /v1/edges' \
  "http://$addr/debug/traces" >"$log/traces.out"
for stage in decode queue fold publish ack; do
  if ! grep -q "\"name\":\"$stage\"" "$log/traces.out"; then
    echo "FAIL: /debug/traces write traces missing stage \"$stage\"" >&2
    head -c 2000 "$log/traces.out" >&2
    exit 1
  fi
done
if ! grep -q 'slowest write trace' "$log/load.out"; then
  echo "FAIL: geeload -traces-url reported no slowest-write breakdown" >&2
  exit 1
fi
if ! grep -Eq 'gee_write_stage_seconds_count\{stage="fold"\} [1-9]' "$log/metrics.out"; then
  echo "FAIL: /metrics shows no per-stage write observations" >&2
  exit 1
fi
# The adopted id must name a retained trace carrying every write stage.
# A dumped trace is one line of JSON whose spans array closes at the
# first ']' after its id (no tag value holds a bracket).
mine=$(grep -o "\"id\":\"$tid\"[^]]*]" "$log/traces.out" | head -1)
if [ -z "$mine" ]; then
  echo "FAIL: /debug/traces does not retain the write sent as trace $tid" >&2
  exit 1
fi
for stage in decode queue fold publish ack; do
  if ! grep -q "\"name\":\"$stage\"" <<<"$mine"; then
    echo "FAIL: trace $tid missing stage \"$stage\": $mine" >&2
    exit 1
  fi
done
if ! grep -q '"min_us":1000,"traces":\[{' "$log/traces.out"; then
  echo "FAIL: the >=1ms shelf of /debug/traces holds no write" >&2
  exit 1
fi
echo "tracing OK (trace $tid retained with every write stage; the >=1ms shelf holds writes)"

# pprof must be absent unless opted in.
pprof_code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/")
if [ "$pprof_code" != "404" ]; then
  echo "FAIL: /debug/pprof/ answered $pprof_code on a server without -pprof (want 404)" >&2
  exit 1
fi

# Second leg: the same replica loop with the readers on the binary wire
# format. The follower must still end bit-identical to the primary (a
# replica reads frames whatever -wire says, and so does its
# verification). Both legs' replicas read every delta as a sparse
# frame, so /statsz must count binary delta responses and not one JSON
# delta response; the delta bytes per applied row are printed for both.
"$bin/geeload" -addr "http://$addr" -duration 2s -writers 3 -readers 0 \
  -batch 32 -edge-block 0.9 -replicas 1 -replica-sync 20ms -replica-verify \
  -wire binary \
  | tee "$log/load_bin.out"

if ! replica_verified "$log/load_bin.out"; then
  echo "FAIL: binary-wire replica not bit-identical to the primary's snapshot sections" >&2
  exit 1
fi
json_rows=$(sed -n 's/.* \([0-9][0-9]*\) delta rows applied.*/\1/p' "$log/load.out" | head -1)
json_wire=$(sed -n 's/.*delta wire \([0-9][0-9]*\) B.*/\1/p' "$log/load.out" | head -1)
bin_rows=$(sed -n 's/.* \([0-9][0-9]*\) delta rows applied.*/\1/p' "$log/load_bin.out" | head -1)
bin_wire=$(sed -n 's/.*delta wire \([0-9][0-9]*\) B.*/\1/p' "$log/load_bin.out" | head -1)
if [ -z "$json_rows" ] || [ -z "$json_wire" ] || [ -z "$bin_rows" ] || [ -z "$bin_wire" ]; then
  echo "FAIL: missing delta wire/rows figures (json $json_wire/$json_rows, binary $bin_wire/$bin_rows)" >&2
  exit 1
fi
echo "delta wire per applied row: -wire json $json_wire B/$json_rows rows, -wire binary $bin_wire B/$bin_rows rows"
if ! curl -fsS "http://$addr/statsz" | grep -Eq '"delta":\{"json_responses":0,"json_bytes":0,"binary_responses":[1-9]'; then
  echo "FAIL: /statsz does not show every delta served as a binary frame:" >&2
  curl -fsS "http://$addr/statsz" | grep -o '"delta":{[^}]*}' >&2 || true
  exit 1
fi

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: server exited with status $status" >&2
  cat "$log/serve.err" >&2
  exit 1
fi
if ! grep -q 'graceful shutdown complete' "$log/serve.out"; then
  echo "FAIL: no graceful-shutdown marker" >&2
  cat "$log/serve.out" >&2
  exit 1
fi

# Opt-in pprof leg: a fresh server started with -pprof must serve the
# profile index on the same mux.
"$bin/geeserve" -serve 127.0.0.1:0 -n 100 -k 2 -pprof \
  >"$log/pprof_serve.out" 2>"$log/pprof_serve.err" &
ppid=$!
trap 'cleanup "$pid" "$ppid"' EXIT
paddr=""
for _ in $(seq 1 100); do
  paddr=$(sed -n 's/^# serving HTTP on //p' "$log/pprof_serve.err" | head -1)
  [ -n "$paddr" ] && break
  sleep 0.1
done
if [ -z "$paddr" ]; then
  echo "FAIL: -pprof server never reported its address" >&2
  cat "$log/pprof_serve.err" >&2
  exit 1
fi
if ! curl -fsS "http://$paddr/debug/pprof/" | grep -q goroutine; then
  echo "FAIL: /debug/pprof/ not serving with -pprof set" >&2
  exit 1
fi
kill -TERM "$ppid"
wait "$ppid" || { echo "FAIL: -pprof server exited non-zero" >&2; exit 1; }
echo "pprof gating OK (404 by default, serves with -pprof)"

# Sharded leg: the same serving surface behind -shards 4. The load is
# the usual writer/reader/replica mix; the replica follower reads the
# partition from /v1/partition, assembles per-shard sections, and must
# end bit-identical to every shard's section. The metrics registry must
# carry all four shard labels and /statsz the per-shard epoch vector.
"$bin/geeserve" -serve 127.0.0.1:0 -n 5000 -k 5 -shards 4 \
  >"$log/shard_serve.out" 2>"$log/shard_serve.err" &
spid=$!
trap 'cleanup "$pid" "$ppid" "$spid"' EXIT
saddr=""
for _ in $(seq 1 100); do
  saddr=$(sed -n 's/^# serving HTTP on //p' "$log/shard_serve.err" | head -1)
  [ -n "$saddr" ] && break
  sleep 0.1
done
if [ -z "$saddr" ]; then
  echo "FAIL: sharded server never reported its address" >&2
  cat "$log/shard_serve.err" >&2
  exit 1
fi
if ! grep -q '^# sharded serving: 4 shards' "$log/shard_serve.err"; then
  echo "FAIL: geeserve -shards 4 did not report sharded serving" >&2
  cat "$log/shard_serve.err" >&2
  exit 1
fi
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$saddr/readyz")
  [ "$code" = "200" ] && break
  sleep 0.1
done
if ! curl -fsS "http://$saddr/v1/partition" | grep -q '"shards":4'; then
  echo "FAIL: /v1/partition does not report 4 shards" >&2
  exit 1
fi
"$bin/geeload" -addr "http://$saddr" -duration 2s -writers 3 -readers 3 -batch 32 \
  -edge-block 0.9 -batch-readers 1 -read-batch 16 \
  -neighbor-readers 1 -neighbor-k 10 -neighbor-mode approx \
  -replicas 1 -replica-sync 20ms -replica-verify \
  | tee "$log/shard_load.out"
if ! grep -Eq 'ingested [1-9][0-9]* ops' "$log/shard_load.out"; then
  echo "FAIL: sharded leg acknowledged no ops" >&2
  exit 1
fi
srecall=$(sed -n 's/^approx neighbor recall@10: \([0-9.]*\) over .*/\1/p' "$log/shard_load.out" | head -1)
if [ -z "$srecall" ]; then
  echo "FAIL: sharded leg reported no recall@10 figure" >&2
  exit 1
fi
if ! awk -v r="$srecall" 'BEGIN { exit !(r == 1) }'; then
  echo "FAIL: sharded approx recall@10 = $srecall, want 1.000" >&2
  exit 1
fi
echo "sharded recall@10 = $srecall"
if ! replica_verified "$log/shard_load.out"; then
  echo "FAIL: sharded replica not bit-identical to the shard sections" >&2
  exit 1
fi
curl -fsS "http://$saddr/metrics" >"$log/shard_metrics.out"
if ! shard_series "$log/shard_metrics.out" 4; then
  echo "FAIL: /metrics missing gee_router_shards 4 or a gee_coalescer_queue_depth{shard=\"0..3\"} series" >&2
  exit 1
fi
if ! curl -fsS "http://$saddr/statsz" | grep -Eq '"epochs":\{"0":[0-9]+'; then
  echo "FAIL: /statsz missing the per-shard epoch vector" >&2
  exit 1
fi
kill -TERM "$spid"
sstatus=0
wait "$spid" || sstatus=$?
if [ "$sstatus" -ne 0 ]; then
  echo "FAIL: sharded server exited with status $sstatus" >&2
  cat "$log/shard_serve.err" >&2
  exit 1
fi
if ! grep -q 'graceful shutdown complete' "$log/shard_serve.out"; then
  echo "FAIL: sharded server missing the graceful-shutdown marker" >&2
  cat "$log/shard_serve.out" >&2
  exit 1
fi
echo "sharded serving OK (4 shards, replica bit-identical, shard-labeled metrics)"
echo "e2e smoke OK"
