#!/usr/bin/env bash
# Waitfreed smoke: prove the daemon's durable-jobs loop end to end on a
# real process over the real wire.
#
# Boot waitfreed with a data dir and a short checkpoint autosave, submit
# a multi-second consensus job over HTTP, SIGKILL the daemon mid-job —
# no drain, no cleanup, the worst case — restart it over the same data
# dir, and assert that (a) the job resumed from its durable checkpoint
# rather than restarting, and (b) its final report is identical to a
# fresh uninterrupted run's of the same submission.
#
# Requires: go, jq, curl.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pid=""
trap '[ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/waitfreed" ./cmd/waitfreed

addr="127.0.0.1:18467"
base="http://$addr/v1"
# A workload long enough to straddle several 200ms autosave intervals:
# sticky 8-process consensus with symmetry reduction off. Measured at 8.5s
# wall clock on 2 cores; the kill below lands about 0.3s in.
job='{"api":"v1","kind":"consensus","protocol":"sticky","procs":8,"explore":{"symmetry":"off"}}'

start_daemon() {
	"$work/waitfreed" -listen "$addr" -data "$work/jobs" -checkpoint-every 200ms 2>> "$work/daemon.log" &
	pid=$!
	for _ in $(seq 1 100); do
		curl -fsS "$base/healthz" > /dev/null 2>&1 && return 0
		kill -0 "$pid" 2>/dev/null || { echo "waitfreed-smoke: daemon died on start" >&2; cat "$work/daemon.log" >&2; exit 1; }
		sleep 0.1
	done
	echo "waitfreed-smoke: daemon never became healthy" >&2
	exit 1
}

# wait_job ID JQ_COND TRIES: poll until the job view satisfies the condition.
wait_job() {
	for _ in $(seq 1 "$3"); do
		view="$(curl -fsS "$base/jobs/$1")"
		if [ "$(jq -r "$2" <<< "$view")" = "true" ]; then
			printf '%s' "$view"
			return 0
		fi
		sleep 0.1
	done
	echo "waitfreed-smoke: job $1 never satisfied $2; last view: $view" >&2
	exit 1
}

echo "waitfreed-smoke: boot and submit"
start_daemon
id="$(curl -fsS -X POST "$base/jobs" -d "$job" | jq -r .id)"

echo "waitfreed-smoke: wait for the first durable checkpoint, then SIGKILL"
wait_job "$id" '.state == "running" and .has_checkpoint' 300 > /dev/null
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "waitfreed-smoke: restart over the same data dir"
start_daemon
resumed="$(wait_job "$id" '.state == "done"' 1200)"
if [ "$(jq -r .resumes <<< "$resumed")" -lt 1 ]; then
	echo "waitfreed-smoke: FAIL — job restarted from scratch instead of resuming" >&2
	exit 1
fi
jq -c .report <<< "$resumed" > "$work/resumed.json"

echo "waitfreed-smoke: fresh uninterrupted run of the same submission"
fresh_id="$(curl -fsS -X POST "$base/jobs" -d "$job" | jq -r .id)"
wait_job "$fresh_id" '.state == "done"' 1200 | jq -c .report > "$work/fresh.json"

if ! diff "$work/resumed.json" "$work/fresh.json"; then
	echo "waitfreed-smoke: FAIL — resumed report differs from the fresh run" >&2
	exit 1
fi

# The SSE stream of a finished job replays its terminal state.
curl -fsS -N --max-time 10 "$base/jobs/$id/events" > "$work/events.txt" || true
grep -q '^event: done' "$work/events.txt" || {
	echo "waitfreed-smoke: FAIL — no done event on the finished job's stream" >&2
	exit 1
}

# Round two: the crash-recovery fault model over the wire. Same
# SIGKILL-mid-run discipline on a job whose exploration itself branches
# on crash and recovery edges — the resumed report must still be
# byte-identical to an uninterrupted run of the same submission.
# Sticky 6-process consensus under crash-recovery, symmetry off: measured
# at 2.1s wall clock on 2 cores.
cr_job='{"api":"v1","kind":"consensus","protocol":"sticky","procs":6,"explore":{"symmetry":"off","faults":{"max_crashes":1,"mode":"crash-recovery","max_recoveries":1}}}'

echo "waitfreed-smoke: submit a crash-recovery job, SIGKILL mid-run"
cr_id="$(curl -fsS -X POST "$base/jobs" -d "$cr_job" | jq -r .id)"
wait_job "$cr_id" '.state == "running" and .has_checkpoint' 300 > /dev/null
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "waitfreed-smoke: restart and resume the crash-recovery job"
start_daemon
cr_resumed="$(wait_job "$cr_id" '.state == "done"' 1200)"
if [ "$(jq -r .resumes <<< "$cr_resumed")" -lt 1 ]; then
	echo "waitfreed-smoke: FAIL — crash-recovery job restarted instead of resuming" >&2
	exit 1
fi
if [ "$(jq -r '.report.consensus.faults.mode' <<< "$cr_resumed")" != "crash-recovery" ]; then
	echo "waitfreed-smoke: FAIL — resumed report does not echo the crash-recovery model" >&2
	exit 1
fi
jq -c .report <<< "$cr_resumed" > "$work/cr-resumed.json"

echo "waitfreed-smoke: fresh uninterrupted crash-recovery run"
cr_fresh_id="$(curl -fsS -X POST "$base/jobs" -d "$cr_job" | jq -r .id)"
wait_job "$cr_fresh_id" '.state == "done"' 1200 | jq -c .report > "$work/cr-fresh.json"

if ! diff "$work/cr-resumed.json" "$work/cr-fresh.json"; then
	echo "waitfreed-smoke: FAIL — resumed crash-recovery report differs from the fresh run" >&2
	exit 1
fi

# Graceful drain: SIGTERM exits cleanly.
kill -TERM "$pid"
wait "$pid" || { echo "waitfreed-smoke: FAIL — daemon exited nonzero on SIGTERM" >&2; exit 1; }
pid=""

# Round three: the storage chaos leg. Boot over a job store whose every
# write fails (the scripted fault filesystem turns each CreateTemp into
# ENOSPC) and assert the daemon walks the degradation ladder instead of
# wedging or lying: submission is refused 503/storage_degraded, the
# health endpoint answers "degraded" with the store's counters attached,
# reads keep serving, and SIGTERM still drains clean.
echo "waitfreed-smoke: chaos — boot over a dead disk"
WAITFREED_FAULT_FS='createtemp:*:enospc' \
	"$work/waitfreed" -listen "$addr" -data "$work/chaos-jobs" 2>> "$work/daemon.log" &
pid=$!
for _ in $(seq 1 100); do
	curl -fsS "$base/healthz" > /dev/null 2>&1 && break
	kill -0 "$pid" 2>/dev/null || { echo "waitfreed-smoke: chaos daemon died on start" >&2; cat "$work/daemon.log" >&2; exit 1; }
	sleep 0.1
done

echo "waitfreed-smoke: chaos — submissions must be refused, not wedged"
for _ in 1 2 3; do
	code="$(curl -sS -o "$work/chaos-submit.json" -w '%{http_code}' -X POST "$base/jobs" -d "$job")"
	if [ "$code" != 503 ] || [ "$(jq -r .error.code "$work/chaos-submit.json")" != storage_degraded ]; then
		echo "waitfreed-smoke: FAIL — submit on a dead disk returned $code $(cat "$work/chaos-submit.json")" >&2
		exit 1
	fi
done
health="$(curl -fsS "$base/healthz")"
if [ "$(jq -r .status <<< "$health")" != degraded ] || [ "$(jq -r .storage.degraded <<< "$health")" != true ]; then
	echo "waitfreed-smoke: FAIL — healthz does not report the sick disk: $health" >&2
	exit 1
fi
if [ "$(jq -r '.jobs | length' <<< "$(curl -fsS "$base/jobs")")" != 0 ]; then
	echo "waitfreed-smoke: FAIL — refused submissions leaked into the job table" >&2
	exit 1
fi
kill -TERM "$pid"
wait "$pid" || { echo "waitfreed-smoke: FAIL — degraded daemon exited nonzero on SIGTERM" >&2; exit 1; }
pid=""
echo "waitfreed-smoke: OK — resumed reports identical, degraded daemon refused instead of wedging"
