#!/usr/bin/env bash
# server-integration.sh — end-to-end smoke of the qjserve daemon, run by the
# CI server-integration job and locally from the repo root:
#
#   scripts/server-integration.sh          # diff against the golden transcript
#   REGEN=1 scripts/server-integration.sh  # regenerate the golden transcript
#
# It builds qjserve, starts it durably (-data-dir) on a kernel-assigned port,
# loads the deterministic socialnetwork instance (scripts/testdata/load.json,
# see scripts/gen-testdata), runs a scripted curl sequence — count, a φ-grid,
# a cache-hit repeat, a delta, the post-delta grid, top-k, dataset listing —
# then exercises durability: WAL compaction, streaming the snapshot artifact,
# a WAL-only delta, kill -9 and a restart on the same data directory that
# must answer byte-identically at the recovered generation. Responses are
# byte-compared against scripts/testdata/golden.txt. They carry no
# timestamps (timing is opt-in per request), so the transcript is
# deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"; [ -n "${server_pid:-}" ] && kill -9 "$server_pid" 2>/dev/null || true' EXIT

go build -o "$workdir/qjserve" ./cmd/qjserve

start_server() { # start_server OUTFILE — boots qjserve on the shared data dir
  "$workdir/qjserve" -addr 127.0.0.1:0 -data-dir "$workdir/data" > "$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^qjserve: listening on //p' "$1")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "qjserve died:"; cat "$1"; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "qjserve did not report its address"; cat "$1"; exit 1; }
  base="http://$addr"
}
start_server "$workdir/server.out"

actual="$workdir/actual.txt"
step() { # step NAME METHOD PATH [BODYFILE]
  local name=$1 method=$2 path=$3 body=${4:-}
  echo "== $name" >> "$actual"
  if [ -n "$body" ]; then
    curl -fsS -X "$method" -H 'Content-Type: application/json' \
      --data-binary "@$body" "$base$path" >> "$actual"
  else
    curl -fsS -X "$method" "$base$path" >> "$actual"
  fi
}

step healthz        GET  /healthz
step load           PUT  /datasets/social scripts/testdata/load.json
step count          POST /query           scripts/testdata/query-count.json
# The grid shares the count request's compiled plan (same query, new
# ranking), so even the first grid is served from the cache.
step grid-shared    POST /query           scripts/testdata/query-grid.json
step grid-cached    POST /query           scripts/testdata/query-grid.json
step topk           POST /query           scripts/testdata/query-topk.json
# mode=approx answers from the sketch tier; the response reports source and
# the certified error_bound, both deterministic on this fixed instance.
step approx         POST /query           scripts/testdata/query-approx.json
step delta          POST /datasets/social/delta scripts/testdata/delta.json
step grid-postdelta POST /query           scripts/testdata/query-grid.json
step count-postdelta POST /query          scripts/testdata/query-count.json
# Migration re-certified the carried sketch, so the post-delta approx answer
# is still served from the sketch tier.
step approx-postdelta POST /query         scripts/testdata/query-approx.json
# A cyclic query (triangle) routes through the hypertree-decomposition path
# (PR 10): the server compiles a single decomposed plan and answers exactly.
step load-tri       PUT  /datasets/tri    scripts/testdata/load-tri.json
step cyclic-grid    POST /query           scripts/testdata/query-cyclic.json
step datasets       GET  /datasets

# Durability. Compact the WAL into a fresh snapshot (no generation bump),
# stream the binary artifact (the blue/green handoff path — the transcript
# records its size, which is deterministic for this instance), apply one more
# delta so a record lives only in the WAL, then kill -9 and restart on the
# same data directory. The recovered server must answer the grid and count
# byte-identically to the pre-kill responses, at the same generation.
step snapshot-compact POST /datasets/social/snapshot
echo "== snapshot-stream" >> "$actual"
curl -fsS "$base/datasets/social/snapshot" -o "$workdir/social.snap"
echo "bytes=$(wc -c < "$workdir/social.snap" | tr -d ' ')" >> "$actual"
step delta-wal-only POST /datasets/social/delta scripts/testdata/delta2.json
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @scripts/testdata/query-grid.json "$base/query" > "$workdir/prekill-grid.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @scripts/testdata/query-count.json "$base/query" > "$workdir/prekill-count.json"

{ kill -9 "$server_pid" && wait "$server_pid"; } 2>/dev/null || true
start_server "$workdir/server2.out"
echo "== recovery" >> "$actual"
sed -n 's/^qjserve: recovered //p' "$workdir/server2.out" >> "$actual"
step grid-recovered  POST /query scripts/testdata/query-grid.json
step count-recovered POST /query scripts/testdata/query-count.json
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @scripts/testdata/query-grid.json "$base/query" > "$workdir/postkill-grid.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @scripts/testdata/query-count.json "$base/query" > "$workdir/postkill-count.json"
cmp "$workdir/prekill-grid.json" "$workdir/postkill-grid.json" || {
  echo "recovered grid response differs from pre-kill response"; exit 1; }
cmp "$workdir/prekill-count.json" "$workdir/postkill-count.json" || {
  echo "recovered count response differs from pre-kill response"; exit 1; }

# Bad inputs must be typed 400s; capture status + field, not the message.
bad() { # bad NAME JSON
  local name=$1 json=$2
  echo "== $name" >> "$actual"
  curl -sS -o "$workdir/err.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' --data-binary "$json" "$base/query" >> "$actual"
  echo -n ' field=' >> "$actual"
  sed -n 's/.*"field":"\([^"]*\)".*/\1/p' "$workdir/err.json" >> "$actual"
  echo >> "$actual"
}
bad bad-phi '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"quantile","phi":1.5}'
bad bad-eps '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"approx","phi":0.5,"eps":0}'
bad bad-k   '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"topk","k":-1}'
bad bad-k-cap '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"topk","k":10001}'
bad bad-eps-floor '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"quantile","phi":0.5,"mode":"approx","eps":1e-9}'
bad bad-mode '{"dataset":"social","query":"Admin(u1,e),Share(u2,e,l2),Attend(u3,e,l3)","rank":"sum(l2,l3)","op":"quantile","phi":0.5,"mode":"bogus"}'

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

golden=scripts/testdata/golden.txt
if [ "${REGEN:-0}" = "1" ]; then
  cp "$actual" "$golden"
  echo "regenerated $golden"
  exit 0
fi
if ! diff -u "$golden" "$actual"; then
  echo "server responses diverge from $golden (regenerate with REGEN=1 if intended)"
  exit 1
fi
echo "server integration OK ($(grep -c '^== ' "$golden") steps)"
