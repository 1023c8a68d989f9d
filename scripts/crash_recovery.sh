#!/usr/bin/env bash
# Crash-recovery lane for durable sessions (serve --data-dir).
#
# Runs ROUNDS rounds of: serve durably, drive a scripted session of
# create/add/remove/compact ops through the client, kill -9 the server
# at a randomized op index (on even rounds the server instead aborts
# itself mid-append via the DSG_CRASH_AFTER_BYTES hook, tearing a WAL
# record on disk at a random byte), restart on the same data dir,
# re-drive every op the client never got an ack for, kill -9 once more
# at the end, restart, and assert:
#
#   * the final query responses are byte-identical to an uninterrupted
#     in-memory reference server (minus elapsed_ms and cache counters),
#   * every named graph recovers to the exact version the reference
#     reached — versions never regress or fork across restarts,
#   * the stats op carries the structured recovery counters.
#
# Re-driving unacked ops is the client's side of the recovery contract:
# an op whose record survived the crash (the kill landed between append
# and publish) re-applies as a content no-op without a version bump, an
# op whose record was torn re-applies for real — both converge to the
# reference, which is exactly the "pre-op or post-op, never a hybrid"
# guarantee under test.
#
# Env knobs: BIN (densest binary), WORK (scratch dir, uploaded on CI
# failure), ROUNDS, SEED (printed; re-run with the same value to
# reproduce a failure).
set -euo pipefail
trap 'echo "::error::crash_recovery.sh: unexpected exit at line $LINENO (seed=${SEED:-?})" >&2' ERR
# A failed assertion exits through set -e; kill every server still
# running so none outlives the script.
trap 'kill -9 $(jobs -p) 2>/dev/null || true' EXIT

BIN=${BIN:-target/release/densest}
WORK=${WORK:-/tmp/dsg-crash-recovery}
ROUNDS=${ROUNDS:-6}
SEED=${SEED:-$RANDOM}
RANDOM=$SEED
echo "crash-recovery: seed=$SEED rounds=$ROUNDS bin=$BIN work=$WORK"

rm -rf "$WORK"
mkdir -p "$WORK"

# ---------------------------------------------------------------------
# The scripted session: two graphs, 30 randomized mutations.
# ---------------------------------------------------------------------
OPS="$WORK/ops.jsonl"
{
  echo '{"id":1,"op":"create_graph","graph":"g1","edges":"0 1, 1 2, 2 0"}'
  echo '{"id":2,"op":"create_graph","graph":"g2","edges":"0 1, 0 2, 0 3"}'
  i=3
  while [ "$i" -le 30 ]; do
    g="g$(((RANDOM % 2) + 1))"
    a=$((RANDOM % 20)) b=$((RANDOM % 20)) c=$((RANDOM % 20)) d=$((RANDOM % 20))
    case $((RANDOM % 10)) in
      0 | 1) echo "{\"id\":$i,\"op\":\"remove_edges\",\"graph\":\"$g\",\"edges\":\"$a $b\"}" ;;
      2) echo "{\"id\":$i,\"op\":\"compact\",\"graph\":\"$g\"}" ;;
      *) echo "{\"id\":$i,\"op\":\"add_edges\",\"graph\":\"$g\",\"edges\":\"$a $b, $c $d\"}" ;;
    esac
    i=$((i + 1))
  done
} > "$OPS"
TOTAL=$(wc -l < "$OPS")

QUERIES="$WORK/queries.jsonl"
{
  echo '{"id":"q1","algorithm":"approx","graph":"g1","epsilon":0.5}'
  echo '{"id":"q2","algorithm":"charikar","graph":"g1"}'
  echo '{"id":"q3","algorithm":"approx","graph":"g2","epsilon":0.5}'
  echo '{"id":"q4","algorithm":"exact","graph":"g2"}'
} > "$QUERIES"

# elapsed_ms is nondeterministic; the cache counters legitimately
# differ between a server that ran the whole session and one that
# recovered it (recovery rebuilds state, not caches).
strip() { sed -E 's/,"elapsed_ms":[^,}]+//; s/,"(cache_hit|result_cache_hit|loads)":[0-9]+//g'; }

wait_sock() {
  for _ in $(seq 1 200); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  echo "::error::socket $1 never appeared" >&2
  return 1
}

# ver_of <stats-file> <graph>: the version the stats op reports.
ver_of() { grep -o "\"name\":\"$2\",\"version\":[0-9]*" "$1" | head -1 | sed 's/.*://'; }

# ---------------------------------------------------------------------
# Reference: one uninterrupted in-memory server runs the whole session.
# ---------------------------------------------------------------------
REF_SOCK="$WORK/ref.sock"
"$BIN" serve --quiet --socket "$REF_SOCK" &
REF_PID=$!
wait_sock "$REF_SOCK"
timeout 60 "$BIN" client --socket "$REF_SOCK" < "$OPS" > "$WORK/ref-ops.out" 2>/dev/null
[ "$(grep -c '"ok":true' "$WORK/ref-ops.out")" -eq "$TOTAL" ]
timeout 60 "$BIN" client --socket "$REF_SOCK" < "$QUERIES" 2>/dev/null | strip > "$WORK/ref-queries.out"
printf '{"op":"stats"}\n' | timeout 60 "$BIN" client --socket "$REF_SOCK" 2>/dev/null > "$WORK/ref-stats.out"
printf '{"op":"shutdown"}\n' | timeout 60 "$BIN" client --socket "$REF_SOCK" > /dev/null 2>&1 || true
wait "$REF_PID" || true
echo "reference: g1@v$(ver_of "$WORK/ref-stats.out" g1) g2@v$(ver_of "$WORK/ref-stats.out" g2)"

# ---------------------------------------------------------------------
# Crash rounds.
# ---------------------------------------------------------------------
SRV_PID=""
run_round() {
  round=$1
  dir="$WORK/round-$round"
  sock="$WORK/round-$round.sock"
  rm -rf "$dir"
  fsync=$((round % 2)) # alternate 1/0: kill -9 keeps the page cache, so both must recover

  start_server() { # $1 = DSG_CRASH_AFTER_BYTES budget, or empty
    # kill -9 leaves the previous socket file behind; remove it so
    # wait_sock below only fires once the NEW server has bound.
    rm -f "$sock"
    if [ -n "${1:-}" ]; then
      DSG_CRASH_AFTER_BYTES=$1 "$BIN" serve --quiet --socket "$sock" --data-dir "$dir" \
        --fsync-every "$fsync" --snapshot-every 8 &
    else
      "$BIN" serve --quiet --socket "$sock" --data-dir "$dir" \
        --fsync-every "$fsync" --snapshot-every 8 &
    fi
    SRV_PID=$!
    wait_sock "$sock"
  }

  if [ $((round % 2)) -eq 0 ]; then
    budget=$((40 + RANDOM % 600)) # self-abort mid-append, torn record on disk
    killpoint=""
    echo "round $round: DSG_CRASH_AFTER_BYTES=$budget fsync_every=$fsync"
  else
    budget=""
    killpoint=$((1 + RANDOM % (TOTAL - 1))) # kill -9 after this many acks
    echo "round $round: kill -9 after $killpoint acked ops, fsync_every=$fsync"
  fi

  start_server "$budget"
  crashes=0
  cursor=1
  stalls=0
  while [ "$cursor" -le "$TOTAL" ]; do
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
      wait "$SRV_PID" 2>/dev/null || true
      crashes=$((crashes + 1))
      start_server "" # recover, no further injected crash
      continue
    fi
    op=$(sed -n "${cursor}p" "$OPS")
    resp=$(printf '%s\n' "$op" | timeout 10 "$BIN" client --socket "$sock" 2>/dev/null || true)
    if echo "$resp" | grep -q '"ok":true'; then
      cursor=$((cursor + 1))
      stalls=0
    elif echo "$resp" | grep -q 'exists'; then
      # Re-sent create whose record survived the crash: already applied.
      cursor=$((cursor + 1))
      stalls=0
    elif [ -z "$resp" ]; then
      # Server died mid-op (or is dying); the loop re-checks liveness.
      stalls=$((stalls + 1))
      if [ "$stalls" -gt 20 ]; then
        echo "::error::round $round: op $cursor got no response from a live server" >&2
        exit 1
      fi
      sleep 0.05
    else
      echo "::error::round $round: unexpected response for op $cursor: $resp" >&2
      exit 1
    fi
    if [ -z "$budget" ] && [ "$crashes" -eq 0 ] && [ "$cursor" -gt "$killpoint" ]; then
      kill -9 "$SRV_PID" 2>/dev/null || true
      wait "$SRV_PID" 2>/dev/null || true
      crashes=1
      start_server ""
    fi
  done
  [ "$crashes" -ge 1 ] || { echo "::error::round $round: never crashed (budget too high?)" >&2; exit 1; }

  # Snapshot the versions the live server is at, then kill -9 with the
  # full session on disk: the restarted server must answer queries
  # byte-identically to the uninterrupted reference AND resume at
  # exactly the versions it died at — never behind (an op lost), never
  # ahead (an op double-applied), and the next mutation strictly above.
  printf '{"op":"stats"}\n' | timeout 60 "$BIN" client --socket "$sock" 2>/dev/null > "$WORK/round-$round-prekill.out" || true
  grep -q '"named":' "$WORK/round-$round-prekill.out" \
    || { echo "::error::round $round: pre-kill stats unreadable" >&2; exit 1; }
  kill -9 "$SRV_PID" 2>/dev/null || true
  wait "$SRV_PID" 2>/dev/null || true
  start_server ""
  timeout 60 "$BIN" client --socket "$sock" < "$QUERIES" 2>/dev/null | strip > "$WORK/round-$round-queries.out" || true
  printf '{"op":"stats"}\n' | timeout 60 "$BIN" client --socket "$sock" 2>/dev/null > "$WORK/round-$round-stats.out" || true
  grep -q '"named":' "$WORK/round-$round-stats.out" \
    || { echo "::error::round $round: post-recovery stats unreadable" >&2; exit 1; }

  if ! diff "$WORK/ref-queries.out" "$WORK/round-$round-queries.out"; then
    echo "::error::round $round: post-recovery queries diverged from the reference" >&2
    exit 1
  fi
  for g in g1 g2; do
    want=$(ver_of "$WORK/round-$round-prekill.out" "$g")
    got=$(ver_of "$WORK/round-$round-stats.out" "$g")
    if [ "$got" != "$want" ]; then
      echo "::error::round $round: $g died at v$want but recovered at v$got" >&2
      exit 1
    fi
  done
  peak=$(ver_of "$WORK/round-$round-prekill.out" g1)
  bump=$(printf '{"id":"vb","op":"add_edges","graph":"g1","edges":"40 41"}\n' \
    | timeout 10 "$BIN" client --socket "$sock" 2>/dev/null \
    | grep -o '"version":[0-9]*' | head -1 | sed 's/.*://')
  g2peak=$(ver_of "$WORK/round-$round-prekill.out" g2)
  [ "$g2peak" -gt "$peak" ] && peak=$g2peak
  if [ -z "$bump" ] || [ "$bump" -le "$peak" ]; then
    echo "::error::round $round: post-recovery mutation got v${bump:-none}, not above v$peak" >&2
    exit 1
  fi
  printf '{"op":"shutdown"}\n' | timeout 60 "$BIN" client --socket "$sock" > /dev/null 2>&1 || true
  wait "$SRV_PID" || true
  grep -q '"replayed_ops":' "$WORK/round-$round-stats.out"
  grep -q '"dropped_tail_records":' "$WORK/round-$round-stats.out"
  grep -q '"wal_bytes":' "$WORK/round-$round-stats.out"
  replayed=$(sed -E 's/.*"replayed_ops":([0-9]+).*/\1/' "$WORK/round-$round-stats.out")
  dropped=$(sed -E 's/.*"dropped_tail_records":([0-9]+).*/\1/' "$WORK/round-$round-stats.out")
  echo "round $round ok: crashes=$crashes resumed-at-exact-versions replayed=$replayed dropped-tails=$dropped"
}

for round in $(seq 1 "$ROUNDS"); do
  run_round "$round"
done
echo "crash-recovery: all $ROUNDS rounds byte-identical to the reference (seed=$SEED)"
