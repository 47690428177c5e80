#!/usr/bin/env bash
# CI smoke for the `repro serve` daemon: a real process on a real port,
# driven by the scripted `repro client` sequence, shut down with SIGTERM,
# restarted on the same disk store to prove the warm-restart path.
#
# Asserts:
#   * the daemon prints its listening address and serves health/decide/stats;
#   * verdicts match the paper (Example 4.1: Q1 vs Q4 — set yes, bag no);
#   * SIGTERM exits 0 after printing the clean-shutdown line;
#   * a restarted daemon serves the same workload off the store file with
#     zero chase runs (store hits, not cold chases);
#   * a `--workers 2` daemon serves the same verdicts from its engine
#     processes, survives SIGKILL of one worker (respawn + next request
#     succeeds), and leaves no engine worker alive after SIGTERM.
#
# Run from the repository root:  bash examples/serve_smoke.sh

set -euo pipefail

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/deps.txt" <<'EOF'
p(X,Y) -> s(X,Z) & t(X,V,W)
p(X,Y) -> t(X,Y,W)
p(X,Y) -> r(X)
p(X,Y) -> u(X,Z) & t(X,Y,W)
s(X,Y) & s(X,Z) -> Y = Z
t(X,Y,Z) & t(X,Y,W) -> Z = W
EOF

Q1='Q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)'
Q4='Q4(X) :- p(X,Y)'
STORE="$WORKDIR/chase-store.jsonl"

# jq may be absent on minimal runners; this is the only JSON probing needed.
json_get() { # json_get <file> <dotted.path> (integer parts index lists)
    python - "$1" "$2" <<'PYEOF'
import json, sys
node = json.load(open(sys.argv[1]))
for part in sys.argv[2].split("."):
    node = node[int(part)] if isinstance(node, list) else node[part]
print(json.dumps(node))
PYEOF
}

start_daemon() { # start_daemon <logfile> [extra serve args...]
    local log="$1"; shift
    python -m repro serve --dependencies "$WORKDIR/deps.txt" \
        --set-valued s,t --port 0 --store "$STORE" "$@" > "$log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 50); do
        grep -q "listening on" "$log" && break
        sleep 0.2
    done
    grep -q "listening on" "$log" || { echo "FAIL: daemon never came up"; cat "$log"; exit 1; }
    PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log" | head -1)
    echo "daemon pid=$DAEMON_PID port=$PORT"
}

stop_daemon() { # stop_daemon <logfile>
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || { echo "FAIL: daemon exited non-zero"; cat "$1"; exit 1; }
    grep -q "shut down cleanly" "$1" || { echo "FAIL: no clean-shutdown line"; cat "$1"; exit 1; }
}

client() { # client <op> [args...] -> writes JSON response to stdout
    python -m repro client "$@" --port "$PORT"
}

# ----------------------------------------------------------------------- #
# Round 1: cold daemon.  Health, the paper's verdicts, stats, clean stop.
# ----------------------------------------------------------------------- #
start_daemon "$WORKDIR/serve1.log"

client health > "$WORKDIR/health.json"
[ "$(json_get "$WORKDIR/health.json" result.status)" = '"ok"' ]

client decide --query "$Q1" --other "$Q4" --semantics set > "$WORKDIR/set.json"
[ "$(json_get "$WORKDIR/set.json" result.equivalent)" = "true" ]

client decide --query "$Q1" --other "$Q4" --semantics bag > "$WORKDIR/bag.json"
[ "$(json_get "$WORKDIR/bag.json" result.equivalent)" = "false" ]

# A structured error must come back as a response, not kill the daemon.
client decide --query 'broken((' --other "$Q4" > "$WORKDIR/err.json" && {
    echo "FAIL: error response should exit non-zero"; exit 1; } || true
[ "$(json_get "$WORKDIR/err.json" error.code)" = '"parse-error"' ]

client stats > "$WORKDIR/stats1.json"
COLD_RUNS=$(json_get "$WORKDIR/stats1.json" result.profile.runs)
WRITES=$(json_get "$WORKDIR/stats1.json" result.store.writes)
[ "$COLD_RUNS" -ge 2 ] || { echo "FAIL: expected cold chases, got runs=$COLD_RUNS"; exit 1; }
[ "$WRITES" -ge 2 ] || { echo "FAIL: expected store writes, got $WRITES"; exit 1; }

stop_daemon "$WORKDIR/serve1.log"
echo "round 1 OK: cold serve + clean shutdown (runs=$COLD_RUNS, store writes=$WRITES)"

# ----------------------------------------------------------------------- #
# Round 2: restart on the same store.  The same workload must be served
# from disk — store hits and zero chase runs.
# ----------------------------------------------------------------------- #
start_daemon "$WORKDIR/serve2.log"

client decide --query "$Q1" --other "$Q4" --semantics bag > "$WORKDIR/bag2.json"
[ "$(json_get "$WORKDIR/bag2.json" result.equivalent)" = "false" ]

client stats > "$WORKDIR/stats2.json"
WARM_RUNS=$(json_get "$WORKDIR/stats2.json" result.profile.runs)
HITS=$(json_get "$WORKDIR/stats2.json" result.store.hits)
[ "$WARM_RUNS" -eq 0 ] || { echo "FAIL: restart re-chased (runs=$WARM_RUNS)"; exit 1; }
[ "$HITS" -ge 2 ] || { echo "FAIL: expected store hits, got $HITS"; exit 1; }

stop_daemon "$WORKDIR/serve2.log"
echo "round 2 OK: warm restart served off the store (hits=$HITS, runs=$WARM_RUNS)"

# ----------------------------------------------------------------------- #
# Round 3: the multi-worker pool.  Two engine processes behind the same
# acceptor, warm off the same store; SIGKILL one worker mid-flight and the
# daemon must respawn it and keep serving; the SIGTERM shutdown must take
# every engine worker down with it.
# ----------------------------------------------------------------------- #
start_daemon "$WORKDIR/serve3.log" --workers 2

grep -q "engine backend process (2 workers)" "$WORKDIR/serve3.log" \
    || { echo "FAIL: no process-backend line"; cat "$WORKDIR/serve3.log"; exit 1; }

client health > "$WORKDIR/health3.json"
[ "$(json_get "$WORKDIR/health3.json" result.backend)" = '"process"' ]
[ "$(json_get "$WORKDIR/health3.json" result.workers)" = "2" ]

client decide --query "$Q1" --other "$Q4" --semantics set > "$WORKDIR/set3.json"
[ "$(json_get "$WORKDIR/set3.json" result.equivalent)" = "true" ]

client stats > "$WORKDIR/stats3.json"
POOL_RUNS=$(json_get "$WORKDIR/stats3.json" result.profile.runs)
[ "$POOL_RUNS" -eq 0 ] || { echo "FAIL: workers re-chased a stored workload (runs=$POOL_RUNS)"; exit 1; }
VICTIM=$(json_get "$WORKDIR/stats3.json" result.workers.0.pid)

echo "killing worker pid=$VICTIM"
kill -9 "$VICTIM"

# The daemon must keep answering: respawn happens in the background, the
# surviving worker serves in the meantime.  Zero failed requests here.
for sem in set bag bag-set; do
    client decide --query "$Q1" --other "$Q4" --semantics "$sem" > "$WORKDIR/after-kill-$sem.json" \
        || { echo "FAIL: decide ($sem) failed after worker kill"; cat "$WORKDIR/after-kill-$sem.json"; exit 1; }
done
[ "$(json_get "$WORKDIR/after-kill-set.json" result.equivalent)" = "true" ]
[ "$(json_get "$WORKDIR/after-kill-bag.json" result.equivalent)" = "false" ]

# Pool bookkeeping: one crash, one respawn, two live workers again.
for _ in $(seq 1 50); do
    client stats > "$WORKDIR/stats4.json"
    [ "$(json_get "$WORKDIR/stats4.json" result.pool.workers)" = "2" ] && break
    sleep 0.2
done
[ "$(json_get "$WORKDIR/stats4.json" result.pool.workers)" = "2" ] \
    || { echo "FAIL: pool never healed to 2 workers"; cat "$WORKDIR/stats4.json"; exit 1; }
RESPAWNS=$(json_get "$WORKDIR/stats4.json" result.pool.respawns)
[ "$RESPAWNS" -ge 1 ] || { echo "FAIL: expected a respawn, got $RESPAWNS"; exit 1; }
WORKER_PIDS="$(json_get "$WORKDIR/stats4.json" result.workers.0.pid) $(json_get "$WORKDIR/stats4.json" result.workers.1.pid)"

stop_daemon "$WORKDIR/serve3.log"
for pid in $WORKER_PIDS; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: engine worker pid=$pid outlived the daemon"; exit 1
    fi
done
echo "round 3 OK: 2-worker pool survived a worker kill (respawns=$RESPAWNS); workers $WORKER_PIDS exited with the daemon"
echo "serve smoke PASSED"
