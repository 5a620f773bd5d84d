#!/usr/bin/env bash
# simd_smoke.sh — end-to-end smoke test for the simulation daemon.
#
#   simd_smoke.sh [graceful|chaos|fabric-chaos]
#
# graceful (default): boots simd, waits for /readyz, submits a small sweep,
# SIGTERMs the daemon mid-run, asserts a graceful drain (exit 0), then
# restarts it and asserts the journal-recovered sweep runs to completion.
#
# chaos: the crash-recovery acceptance test for durable checkpoints. First
# runs the sweep uninterrupted on a control daemon (checkpoints armed, so
# both runs live in the same cadence timing universe) and records its
# results; then boots a second daemon, kill -9s it mid-sweep, restarts it
# over the same journal, and asserts the recovered sweep's results are
# byte-identical to the control's — cells finished before the kill come
# from the cell journal, the cell in flight resumes from its snapshot.
#
# fabric-chaos: the distributed acceptance test (DESIGN.md §15). Runs a
# generated many-cell sweep on a single-node control daemon, then re-runs
# it on a coordinator with three pull workers while the test kill -9s one
# worker mid-cell, SIGTERMs a second, and restarts the coordinator over its
# journal — and asserts the merged fabric results are byte-identical to the
# single-node control. FABRIC_CELLS (default 112) scales the generated
# grid; the paper-scale run uses FABRIC_CELLS=10000.
#
# Every restart also checks the crash epoch (DESIGN.md §15): a boot that
# resumes a sweep adds exactly one "op":"epoch" record to requests.journal
# (a boot with nothing to resume adds none), and no per-sweep assignment
# journal (sweep-*.assign) is ever written.
#
# This is the CI-level counterpart of internal/server's unit tests: it
# exercises the real binary, real signals, and a real restart.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-graceful}"
ADDR="127.0.0.1:18097"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
JOURNAL="$WORK/journal"
SIMD_PID=""
WORKER_PIDS=()

cleanup() {
	if [[ -n "$SIMD_PID" ]] && kill -0 "$SIMD_PID" 2>/dev/null; then
		kill -9 "$SIMD_PID" 2>/dev/null || true
	fi
	for pid in "${WORKER_PIDS[@]}"; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
	echo "simd-smoke: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$WORK/simd.log" >&2 || true
	exit 1
}

wait_ready() {
	for _ in $(seq 1 100); do
		if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	fail "daemon never became ready"
}

# epoch_lines: how many crash-epoch records the request journal holds.
epoch_lines() {
	grep -c '"op":"epoch"' "$JOURNAL/requests.journal" || true
}

# check_restart BEFORE: run once a restarted daemon is ready. If it resumed
# a sweep, the request journal must hold exactly one more crash-epoch
# record than BEFORE (epoch_lines before the restart), otherwise the same
# number; and no assignment journal may exist.
check_restart() {
	local want=$1 got
	[[ "$(metric_val jobs_resumed)" == "0" ]] || want=$(($1 + 1))
	got=$(epoch_lines)
	[[ "$got" -eq "$want" ]] || fail "request journal holds $got epoch record(s) after the restart, want $want"
	if compgen -G "$JOURNAL/sweep-*.assign" >/dev/null; then
		fail "assignment journal written: $(ls "$JOURNAL"/sweep-*.assign)"
	fi
	echo "simd-smoke: restart recorded crash epoch $got, no assignment journal"
}

# wait_done ID BUDGET_TICKS: poll GET /sweep/ID until done; fail on
# failed/stuck. Prints the final status JSON.
wait_done() {
	local id="$1" ticks="$2" status state
	for _ in $(seq 1 "$ticks"); do
		status=$(curl -fsS "$BASE/sweep/$id" 2>/dev/null || true)
		state=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' <<<"$status")
		if [[ "$state" == "done" ]]; then
			printf '%s' "$status"
			return 0
		fi
		[[ "$state" == "failed" || "$state" == "stuck" ]] && fail "sweep $id ended $state"
		sleep 0.1
	done
	fail "sweep $id never completed (state=${state:-unknown})"
}

echo "simd-smoke: building"
go build -o "$WORK/simd" ./cmd/simd

# A sweep slow enough to be caught mid-run by the interruption below: one
# source program across several configs, each cell a few hundred ms of
# simulation.
SWEEP_JSON="$WORK/sweep.json"
cat >"$SWEEP_JSON" <<'EOF'
{
  "source": "int main() { int i = 0; int acc = 0; while (i < 2000000) { acc = acc + i; i = i + 1; } putc('0' + (acc % 10)); return 0; }",
  "configs": [
    {"disc": "dyn4",   "issue": 4, "mem": "A", "branch": "single"},
    {"disc": "dyn4",   "issue": 2, "mem": "A", "branch": "single"},
    {"disc": "static", "issue": 1, "mem": "A", "branch": "single"},
    {"disc": "dyn256", "issue": 4, "mem": "A", "branch": "single"}
  ]
}
EOF

submit_sweep() {
	local id
	id=$(curl -fsS -X POST -d @"$SWEEP_JSON" "$BASE/sweep" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
	[[ -n "$id" ]] || fail "sweep not accepted"
	printf '%s' "$id"
}

wait_started() {
	local id="$1" state=""
	for _ in $(seq 1 200); do
		state=$(curl -fsS "$BASE/sweep/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
		[[ "$state" == "running" || "$state" == "done" ]] && break
		sleep 0.1
	done
	[[ "$state" == "running" || "$state" == "done" ]] || fail "sweep never started (state=$state)"
	printf '%s' "$state"
}

graceful_smoke() {
	echo "simd-smoke: boot 1 (will be SIGTERMed mid-sweep)"
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" -concurrency 1 -drain-timeout 1s \
		>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready

	local ID STATE
	ID=$(submit_sweep)
	echo "simd-smoke: sweep $ID accepted"

	# Let the sweep actually start (prepare + first cells), then interrupt.
	STATE=$(wait_started "$ID")

	echo "simd-smoke: SIGTERM mid-run (state=$STATE)"
	kill -TERM "$SIMD_PID"
	EXIT=0
	wait "$SIMD_PID" || EXIT=$?
	SIMD_PID=""
	[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT on SIGTERM, want graceful exit 0"
	grep -q "drained cleanly" "$WORK/simd.log" || fail "daemon log missing drain message"
	[[ -f "$JOURNAL/requests.journal" ]] || fail "request journal missing"
	echo "simd-smoke: graceful drain confirmed (exit 0)"

	echo "simd-smoke: boot 2 (journal recovery)"
	local EPOCHS
	EPOCHS=$(epoch_lines)
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" \
		>>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	check_restart "$EPOCHS"

	# Whether boot 1 finished the sweep before draining or left it
	# interrupted, boot 2 must converge on a settled journal: either nothing
	# was pending, or the recovered sweep (same ID) runs to done.
	DONE=""
	for _ in $(seq 1 600); do
		STATUS=$(curl -fsS "$BASE/sweep/$ID" 2>/dev/null || true)
		STATE=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' <<<"$STATUS")
		if [[ "$STATE" == "done" ]]; then
			DONE=1
			break
		fi
		# 404 means boot 1 settled the sweep before the drain; resumed metric
		# must then be zero and there is nothing to wait for.
		if [[ -z "$STATE" ]]; then
			RESUMED=$(curl -fsS "$BASE/metrics" | sed -n 's/.*"jobs_resumed": \([0-9]*\).*/\1/p')
			[[ "$RESUMED" == "0" ]] && DONE=1 && break
		fi
		[[ "$STATE" == "failed" || "$STATE" == "stuck" ]] && fail "recovered sweep ended $STATE"
		sleep 0.1
	done
	[[ -n "$DONE" ]] || fail "recovered sweep never completed (state=$STATE)"
	echo "simd-smoke: journal recovery confirmed"

	curl -fsS "$BASE/metrics" | sed -n '1,30p'

	echo "simd-smoke: shutdown"
	kill -TERM "$SIMD_PID"
	EXIT=0
	wait "$SIMD_PID" || EXIT=$?
	SIMD_PID=""
	[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT on final SIGTERM"
}

# results_of STATUS: the byte-comparable "results" object of a sweep
# status — the per-cell statistics, key-sorted by encoding/json. A fabric
# job's status also carries per-cell "digests" after it (DESIGN.md §17),
# which a single-node status lacks, so the output stops at the end of
# "results" and drops the comma that separates the two.
results_of() {
	sed -n '/^  "results":/,/^  }/{s/^  },$/  }/;p;}' <<<"$1"
}

CKPT_FLAGS=(-checkpoint-every 50000)

chaos_smoke() {
	# Control: the same sweep, checkpoints armed, never interrupted. The
	# cadence perturbs engine timing, so only another armed run is
	# comparable — that is the point: interrupted-and-resumed must be
	# bit-identical to straight-through at the same cadence.
	echo "simd-smoke(chaos): control run"
	"$WORK/simd" -addr "$ADDR" -journal "$WORK/journal-control" -concurrency 1 \
		"${CKPT_FLAGS[@]}" >"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	local CONTROL_ID CONTROL_STATUS CONTROL_RESULTS
	CONTROL_ID=$(submit_sweep)
	CONTROL_STATUS=$(wait_done "$CONTROL_ID" 1200)
	CONTROL_RESULTS=$(results_of "$CONTROL_STATUS")
	[[ -n "$CONTROL_RESULTS" ]] || fail "control sweep has no results"
	kill -TERM "$SIMD_PID"
	wait "$SIMD_PID" || true
	SIMD_PID=""

	echo "simd-smoke(chaos): boot 1 (will be kill -9ed mid-sweep)"
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" -concurrency 1 \
		"${CKPT_FLAGS[@]}" >>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	local ID STATE
	ID=$(submit_sweep)
	echo "simd-smoke(chaos): sweep $ID accepted"
	STATE=$(wait_started "$ID")
	# Give the first cells time to finish and the in-flight one time to park
	# checkpoints, then pull the plug with no warning whatsoever.
	sleep 1
	STATE=$(curl -fsS "$BASE/sweep/$ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
	if [[ "$STATE" == "done" ]]; then
		# The machine outran the chaos window; the run is still a valid
		# (uninterrupted) comparison against the control.
		echo "simd-smoke(chaos): sweep finished before the kill; comparing directly"
		local FAST_STATUS
		FAST_STATUS=$(curl -fsS "$BASE/sweep/$ID")
		[[ "$(results_of "$FAST_STATUS")" == "$CONTROL_RESULTS" ]] || fail "uninterrupted results differ from control"
		kill -TERM "$SIMD_PID"
		wait "$SIMD_PID" || true
		SIMD_PID=""
		return 0
	fi
	echo "simd-smoke(chaos): kill -9 mid-run (state=$STATE)"
	kill -9 "$SIMD_PID"
	wait "$SIMD_PID" 2>/dev/null || true
	SIMD_PID=""
	[[ -f "$JOURNAL/requests.journal" ]] || fail "request journal missing after kill -9"
	if ls "$JOURNAL"/snapshots/*.snap >/dev/null 2>&1; then
		echo "simd-smoke(chaos): mid-cell snapshot(s) parked at kill time"
	else
		# Tiny window: the kill landed between cells. Recovery then comes
		# from the cell journal alone, which is still a valid run.
		echo "simd-smoke(chaos): no snapshot at kill time (between cells)"
	fi

	echo "simd-smoke(chaos): boot 2 (crash recovery)"
	local EPOCHS
	EPOCHS=$(epoch_lines)
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" -concurrency 1 \
		"${CKPT_FLAGS[@]}" >>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	check_restart "$EPOCHS"
	local STATUS RESULTS
	STATUS=$(wait_done "$ID" 1200)
	RESULTS=$(results_of "$STATUS")
	echo "simd-smoke(chaos): recovered sweep completed"

	if [[ "$RESULTS" != "$CONTROL_RESULTS" ]]; then
		echo "--- control results ---" >&2
		printf '%s\n' "$CONTROL_RESULTS" >&2
		echo "--- recovered results ---" >&2
		printf '%s\n' "$RESULTS" >&2
		fail "recovered sweep results differ from uninterrupted control"
	fi
	echo "simd-smoke(chaos): results byte-identical to control"

	# Completed cells clean up after themselves: no snapshots may linger.
	if ls "$JOURNAL"/snapshots/*.snap* >/dev/null 2>&1; then
		fail "snapshots left behind after the sweep completed"
	fi

	curl -fsS "$BASE/metrics" | sed -n '1,30p'

	echo "simd-smoke(chaos): shutdown"
	kill -TERM "$SIMD_PID"
	EXIT=0
	wait "$SIMD_PID" || EXIT=$?
	SIMD_PID=""
	[[ "$EXIT" -eq 0 ]] || fail "daemon exited $EXIT on final SIGTERM"
}

# metric_val NAME: one integer counter from /metrics.
metric_val() {
	curl -fsS "$BASE/metrics" | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p"
}

# gen_fabric_sweep N PATH: a generated N-cell grid — one medium-length
# source program crossed with mem/predictor/issue/window variants, the
# multi-axis shape the fabric shards by image-cache key.
gen_fabric_sweep() {
	local n="$1" path="$2"
	local mems=(A B C D E F G) preds='"", "gshare"' i mem pred issue window sep=""
	{
		printf '{\n  "source": "int main() { int i = 0; int acc = 0; while (i < 300000) { acc = acc + i; i = i + 1; } putc(%s + (acc %% 10)); return 0; }",\n  "configs": [\n' "'0'"
		for ((i = 0; i < n; i++)); do
			mem=${mems[$((i % 7))]}
			pred=$(( (i / 7) % 2 ))
			issue=$((1 << ((i / 14) % 4)))
			window=$(( (i / 56) * 16 ))
			printf '%s    {"disc": "dyn4", "issue": %d, "mem": "%s", "branch": "single"' "$sep" "$issue" "$mem"
			[[ "$pred" == 1 ]] && printf ', "predictor": "gshare"'
			[[ "$window" -gt 0 ]] && printf ', "window": %d' "$window"
			printf '}'
			sep=$',\n'
		done
		printf '\n  ]\n}\n'
	} >"$path"
}

# start_worker NAME: one pull worker against $BASE; PID left in
# WORKER_PID and appended to WORKER_PIDS. Call it directly, not inside
# $(...): the worker must be a child of this shell, or `wait` cannot reap
# it and cleanup never learns its PID. Concurrency 1 keeps the sweep slow
# enough that the chaos (kills, restart) reliably lands while cells are in
# flight.
start_worker() {
	local name="$1"
	"$WORK/simd" -worker "$BASE" -worker-id "$name" -heartbeat 250ms -concurrency 1 \
		>"$WORK/worker-$name.log" 2>&1 &
	WORKER_PID=$!
	WORKER_PIDS+=("$WORKER_PID")
}

FABRIC_FLAGS=(-coordinator -worker-dead-after 2s -steal-after 1s "${CKPT_FLAGS[@]}")

fabric_chaos_smoke() {
	local CELLS="${FABRIC_CELLS:-112}"
	local TICKS=$((CELLS * 40 + 1200))
	echo "simd-smoke(fabric): generating $CELLS-cell sweep"
	gen_fabric_sweep "$CELLS" "$WORK/fabric-sweep.json"
	SWEEP_JSON="$WORK/fabric-sweep.json"

	# Single-node control at the same checkpoint cadence: the fabric merge
	# must be byte-identical to this.
	echo "simd-smoke(fabric): single-node control run"
	"$WORK/simd" -addr "$ADDR" -journal "$WORK/journal-control" \
		"${CKPT_FLAGS[@]}" >"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	local CONTROL_ID CONTROL_RESULTS
	CONTROL_ID=$(submit_sweep)
	CONTROL_RESULTS=$(results_of "$(wait_done "$CONTROL_ID" "$TICKS")")
	[[ -n "$CONTROL_RESULTS" ]] || fail "control sweep has no results"
	kill -TERM "$SIMD_PID"
	wait "$SIMD_PID" || true
	SIMD_PID=""

	echo "simd-smoke(fabric): boot coordinator + 3 workers"
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" "${FABRIC_FLAGS[@]}" \
		>>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	local W1 W2 W3
	start_worker w1
	W1=$WORKER_PID
	start_worker w2
	W2=$WORKER_PID
	start_worker w3
	W3=$WORKER_PID

	local ID
	ID=$(submit_sweep)
	echo "simd-smoke(fabric): sweep $ID accepted"

	# Chaos window: wait for real progress so the kills land mid-sweep.
	local done_cells=0
	for _ in $(seq 1 600); do
		done_cells=$(curl -fsS "$BASE/sweep/$ID" | sed -n 's/.*"done": \([0-9]*\).*/\1/p')
		[[ "${done_cells:-0}" -ge 1 ]] && break
		sleep 0.1
	done
	[[ "${done_cells:-0}" -ge 1 ]] || fail "fabric sweep made no progress"

	echo "simd-smoke(fabric): kill -9 worker w1 mid-cell"
	kill -9 "$W1"
	wait "$W1" 2>/dev/null || true

	# The liveness watchdog must declare w1 dead and requeue its cells.
	local dead=0
	for _ in $(seq 1 150); do
		dead=$(metric_val workers_dead)
		[[ "${dead:-0}" -ge 1 ]] && break
		sleep 0.1
	done
	[[ "${dead:-0}" -ge 1 ]] || fail "dead worker never declared (workers_dead=$dead)"
	echo "simd-smoke(fabric): w1 declared dead, cells_requeued=$(metric_val cells_requeued)"

	echo "simd-smoke(fabric): SIGTERM worker w2 (graceful drain)"
	kill -TERM "$W2"
	local EXIT=0
	wait "$W2" || EXIT=$?
	[[ "$EXIT" -eq 0 ]] || fail "worker w2 exited $EXIT on SIGTERM, want 0"
	grep -q "drained" "$WORK/worker-w2.log" || fail "worker w2 log missing drain message"

	# A fast machine may have finished the sweep already; the run is then
	# still a valid (no-restart) comparison against the control.
	local STATE
	STATE=$(curl -fsS "$BASE/sweep/$ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
	if [[ "$STATE" == "done" ]]; then
		echo "simd-smoke(fabric): sweep finished before the restart; comparing directly"
		RESULTS=$(results_of "$(curl -fsS "$BASE/sweep/$ID")")
		[[ "$RESULTS" == "$CONTROL_RESULTS" ]] || fail "fabric results differ from single-node control"
		echo "simd-smoke(fabric): results byte-identical to single-node control"
		return 0
	fi

	echo "simd-smoke(fabric): restart coordinator over its journal"
	kill -TERM "$SIMD_PID"
	EXIT=0
	wait "$SIMD_PID" || EXIT=$?
	SIMD_PID=""
	[[ "$EXIT" -eq 0 ]] || fail "coordinator exited $EXIT on SIGTERM, want 0"
	local EPOCHS
	EPOCHS=$(epoch_lines)
	"$WORK/simd" -addr "$ADDR" -journal "$JOURNAL" "${FABRIC_FLAGS[@]}" \
		>>"$WORK/simd.log" 2>&1 &
	SIMD_PID=$!
	wait_ready
	[[ "$(metric_val jobs_resumed)" == "1" ]] || fail "coordinator did not resume the sweep from its journal"
	check_restart "$EPOCHS"
	echo "simd-smoke(fabric): resumed with cells_restored=$(metric_val cells_restored)"

	# w3 survived the restart (its stale lease gets 410, it re-registers);
	# a replacement worker joins for the lost capacity.
	start_worker w4

	local RESULTS
	RESULTS=$(results_of "$(wait_done "$ID" "$TICKS")")
	echo "simd-smoke(fabric): fabric sweep completed"

	if [[ "$RESULTS" != "$CONTROL_RESULTS" ]]; then
		echo "--- control results (first 40 lines) ---" >&2
		head -40 <<<"$CONTROL_RESULTS" >&2
		echo "--- fabric results (first 40 lines) ---" >&2
		head -40 <<<"$RESULTS" >&2
		fail "fabric results differ from single-node control"
	fi
	echo "simd-smoke(fabric): results byte-identical to single-node control"

	curl -fsS "$BASE/metrics" | sed -n '1,40p'

	echo "simd-smoke(fabric): shutdown"
	for pid in "$W3" "${WORKER_PIDS[-1]}"; do
		kill -TERM "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
	kill -TERM "$SIMD_PID"
	EXIT=0
	wait "$SIMD_PID" || EXIT=$?
	SIMD_PID=""
	[[ "$EXIT" -eq 0 ]] || fail "coordinator exited $EXIT on final SIGTERM"
}

case "$MODE" in
graceful) graceful_smoke ;;
chaos) chaos_smoke ;;
fabric-chaos) fabric_chaos_smoke ;;
*)
	echo "usage: $0 [graceful|chaos|fabric-chaos]" >&2
	exit 2
	;;
esac

echo "simd-smoke: PASS ($MODE)"
