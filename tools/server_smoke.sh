#!/usr/bin/env bash
# End-to-end smoke test for kgfd_server against the real binaries: trains
# a tiny model with kgfd_cli, serves discovery jobs over HTTP, and checks
# the three serving contracts CI cares about:
#
#   1. the facts a job returns are BYTE-IDENTICAL to `kgfd_cli discover`
#      run with the same options on the same artifacts;
#   2. a second identical job is served from the shared caches (asserted
#      via /metrics counters, and again byte-identical); the journal holds
#      at most 3 records per finished job; a `job.kind = run` POST is a 400
#      naming `kgfd_cli run`; a job that sets discovery.filtered_ranking
#      and discovery.max_iterations matches
#      `kgfd_cli discover --filtered_ranking false --max_iterations 3`;
#   3. SIGTERM drains gracefully and the server exits 0;
#   4. the whole stack rerun under the mmap embedding backend (with full
#      payload verification) serves the same bytes as the ram run;
#   5. SIGKILL mid-job + restart over the same --work_dir recovers the job
#      from the journal and serves BYTE-IDENTICAL facts (the durability
#      contract; tools/server_chaos.sh hammers the same property harder).
#
# Usage: tools/server_smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/kgfd_cli"
SRV="$BUILD_DIR/tools/kgfd_server"
SCRATCH="$(mktemp -d)"
SRVPID=""
cleanup() {
  [ -n "$SRVPID" ] && kill -KILL "$SRVPID" 2>/dev/null
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

fail() {
  echo "server_smoke: FAIL: $*" >&2
  [ -f "$SCRATCH/server.log" ] && sed 's/^/server_smoke:   server.log: /' \
    "$SCRATCH/server.log" >&2
  exit 1
}

for bin in "$CLI" "$SRV"; do
  [ -x "$bin" ] || fail "missing binary $bin (build first)"
done

# ---------------------------------------------------------------- artifacts
CLI="$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")"
SRV="$(cd "$(dirname "$SRV")" && pwd)/$(basename "$SRV")"
cd "$SCRATCH" || exit 1
mkdir -p data

"$CLI" generate --preset FB15K-237 --scale 400 --out data \
  >/dev/null 2>&1 || fail "kgfd_cli generate"
"$CLI" train --data data --model TransE --dim 16 --epochs 3 \
  --checkpoint model.bin >/dev/null 2>&1 || fail "kgfd_cli train"
"$CLI" discover --data data --checkpoint model.bin \
  --top_n 50 --max_candidates 100 --out cli_facts.tsv \
  >/dev/null 2>&1 || fail "kgfd_cli discover"
[ -s cli_facts.tsv ] || fail "kgfd_cli discover wrote no facts"

# ------------------------------------------------------------------- server
"$SRV" --port 0 --work_dir jobs >server.log 2>&1 &
SRVPID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' server.log)"
  [ -n "$PORT" ] && break
  kill -0 "$SRVPID" 2>/dev/null || fail "server died on startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed its listening port"
BASE="http://127.0.0.1:$PORT"

curl -fsS "$BASE/healthz" >/dev/null || fail "GET /healthz"

cat >job.cfg <<CFG
data.dir = data
model.checkpoint = model.bin
discovery.top_n = 50
discovery.max_candidates = 100
CFG

submit_and_wait() {  # [CONFIG] prints the job id; fails on any error
  local id state
  id="$(curl -fsS -X POST "$BASE/jobs" --data-binary "@${1:-job.cfg}")" ||
    fail "POST /jobs"
  for _ in $(seq 1 300); do
    state="$(curl -fsS "$BASE/jobs/$id" | sed -n 's/^state = //p')"
    case "$state" in
      done) echo "$id"; return 0 ;;
      failed | cancelled | deadline)
        curl -fsS "$BASE/jobs/$id" >&2
        fail "job $id ended in state '$state'" ;;
    esac
    sleep 0.1
  done
  fail "job $id never finished"
}

# Contract 1: HTTP facts == CLI facts, byte for byte.
ID1="$(submit_and_wait)" || exit 1
curl -fsS "$BASE/jobs/$ID1/facts" >http_facts.tsv || fail "GET facts ($ID1)"
cmp -s cli_facts.tsv http_facts.tsv ||
  fail "facts from job $ID1 differ from kgfd_cli output"

# Contract 2: an identical rerun is served from the shared caches.
ID2="$(submit_and_wait)" || exit 1
curl -fsS "$BASE/jobs/$ID2/facts" >http_facts2.tsv || fail "GET facts ($ID2)"
cmp -s cli_facts.tsv http_facts2.tsv ||
  fail "facts from cached job $ID2 differ from kgfd_cli output"

curl -fsS "$BASE/metrics" >metrics.txt || fail "GET /metrics"
counter() { sed -n "s/^counter $1 //p" metrics.txt; }
[ "$(counter server.model_cache.hits)" -ge 1 ] 2>/dev/null ||
  fail "second job did not hit the model cache"
[ "$(counter discovery.shared_scores.hits)" -ge 1 ] 2>/dev/null ||
  fail "second job did not hit the shared score cache"
[ "$(counter discovery.shared_scores.hits)" = \
  "$(counter discovery.shared_scores.misses)" ] ||
  fail "rerun was not fully cache-served (hits != misses)"
# The journal holds what recovery reads: submitted, started and terminal
# per job. Progress lives in each job's resume manifest.
RECORDS="$(counter server.journal.records)"
FINISHED="$(counter server.jobs.completed)"
[ "$FINISHED" -ge 2 ] 2>/dev/null && [ "$RECORDS" -le $((3 * FINISHED)) ] ||
  fail "$RECORDS journal records for $FINISHED finished jobs (want <= 3 each)"

# The server runs discover jobs only; a pipeline body is refused with a
# pointer to the CLI that runs it.
printf 'job.kind = run\ndataset.preset = FB15K-237\n' >job_run.cfg
RUN_CODE="$(curl -sS -o run_reply.txt -w '%{http_code}' -X POST "$BASE/jobs" \
  --data-binary @job_run.cfg)" || fail "POST /jobs (job.kind = run)"
[ "$RUN_CODE" = 400 ] && grep -q "kgfd_cli run" run_reply.txt ||
  fail "job.kind = run got $RUN_CODE '$(cat run_reply.txt)' (want 400 naming kgfd_cli run)"

# Every discovery option reaches both front ends alike, including the
# ones only a POST could set before they shared one option table.
"$CLI" discover --data data --checkpoint model.bin \
  --top_n 50 --max_candidates 100 --filtered_ranking false \
  --max_iterations 3 --out cli_facts_knobs.tsv >/dev/null 2>&1 ||
  fail "kgfd_cli discover --filtered_ranking false --max_iterations 3"
{ cat job.cfg; printf 'discovery.filtered_ranking = false\n'
  printf 'discovery.max_iterations = 3\n'; } >job_knobs.cfg
ID_KNOBS="$(submit_and_wait job_knobs.cfg)" || exit 1
curl -fsS "$BASE/jobs/$ID_KNOBS/facts" >http_facts_knobs.tsv ||
  fail "GET facts ($ID_KNOBS)"
[ -s cli_facts_knobs.tsv ] || fail "knob run wrote no facts"
cmp -s cli_facts_knobs.tsv http_facts_knobs.tsv ||
  fail "facts from job $ID_KNOBS differ from kgfd_cli output (same knobs)"

# Contract 3: SIGTERM drains and exits 0.
kill -TERM "$SRVPID"
wait "$SRVPID"
STATUS=$?
SRVPID=""
[ "$STATUS" -eq 0 ] || fail "SIGTERM drain exited $STATUS (want 0)"
grep -q "kgfd_server exiting" server.log || fail "missing drain log line"

# Contract 4: the mmap embedding backend is invisible in the output. Run
# the CLI and a fresh server with --embedding_backend mmap (plus full
# payload verification) and demand the same bytes as the ram run above.
KGFD_MMAP_VERIFY=1 "$CLI" discover --data data --checkpoint model.bin \
  --embedding_backend mmap --top_n 50 --max_candidates 100 \
  --out cli_facts_mmap.tsv >/dev/null 2>&1 ||
  fail "kgfd_cli discover --embedding_backend mmap"
cmp -s cli_facts.tsv cli_facts_mmap.tsv ||
  fail "mmap-backend CLI facts differ from ram-backend facts"

KGFD_MMAP_VERIFY=1 "$SRV" --port 0 --work_dir jobs_mmap \
  --embedding_backend mmap >server.log 2>&1 &
SRVPID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' server.log)"
  [ -n "$PORT" ] && break
  kill -0 "$SRVPID" 2>/dev/null || fail "mmap server died on startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "mmap server never printed its listening port"
BASE="http://127.0.0.1:$PORT"

ID3="$(submit_and_wait)" || exit 1
curl -fsS "$BASE/jobs/$ID3/facts" >http_facts_mmap.tsv ||
  fail "GET facts ($ID3, mmap)"
cmp -s cli_facts.tsv http_facts_mmap.tsv ||
  fail "facts from mmap-backend job $ID3 differ from ram-backend output"

kill -TERM "$SRVPID"
wait "$SRVPID"
STATUS=$?
SRVPID=""
[ "$STATUS" -eq 0 ] || fail "mmap server SIGTERM drain exited $STATUS"

# Contract 5: kill -9 mid-job, restart over the same work_dir, and the
# recovered job must finish with the exact bytes of the CLI run. The delay
# failpoint slows the sweep so the SIGKILL reliably lands mid-job.
"$SRV" --port 0 --work_dir jobs_kill \
  --failpoints "core.discovery.relation=delay(300)" >server.log 2>&1 &
SRVPID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' server.log)"
  [ -n "$PORT" ] && break
  kill -0 "$SRVPID" 2>/dev/null || fail "kill-run server died on startup"
  sleep 0.1
done
[ -n "$PORT" ] || fail "kill-run server never printed its listening port"
BASE="http://127.0.0.1:$PORT"

ID5="$(curl -fsS -X POST "$BASE/jobs" --data-binary @job.cfg)" ||
  fail "POST /jobs (kill run)"
for _ in $(seq 1 100); do
  DONE_COUNT="$(curl -fsS "$BASE/jobs/$ID5" 2>/dev/null |
    sed -n 's/^relations_done = //p')"
  [ -n "$DONE_COUNT" ] && [ "$DONE_COUNT" -ge 1 ] 2>/dev/null && break
  sleep 0.1
done
kill -KILL "$SRVPID"
wait "$SRVPID" 2>/dev/null
SRVPID=""

"$SRV" --port 0 --work_dir jobs_kill >server.log 2>&1 &
SRVPID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' server.log)"
  [ -n "$PORT" ] && break
  kill -0 "$SRVPID" 2>/dev/null || fail "server died on restart after kill -9"
  sleep 0.1
done
[ -n "$PORT" ] || fail "restarted server never printed its listening port"
BASE="http://127.0.0.1:$PORT"

grep -q "kgfd_server recovery:" server.log ||
  fail "restart printed no recovery summary"
REQUEUED="$(sed -n 's/.*requeued=\([0-9]*\).*/\1/p' server.log)"
[ "$REQUEUED" = "1" ] ||
  fail "expected 1 requeued job after SIGKILL, got '$REQUEUED'"

STATE=""
for _ in $(seq 1 300); do
  STATE="$(curl -fsS "$BASE/jobs/$ID5" 2>/dev/null | sed -n 's/^state = //p')"
  [ "$STATE" = "done" ] && break
  case "$STATE" in failed* | cancelled | deadline)
    curl -fsS "$BASE/jobs/$ID5" >&2
    fail "recovered job $ID5 ended in state '$STATE'" ;;
  esac
  sleep 0.1
done
[ "$STATE" = "done" ] || fail "recovered job $ID5 never finished"
curl -fsS "$BASE/jobs/$ID5" | grep -q "^recovered = true" ||
  fail "job status does not mark $ID5 as recovered"
curl -fsS "$BASE/jobs/$ID5/facts" >http_facts_recovered.tsv ||
  fail "GET facts ($ID5, recovered)"
cmp -s cli_facts.tsv http_facts_recovered.tsv ||
  fail "facts recovered after kill -9 differ from kgfd_cli output"

kill -TERM "$SRVPID"
wait "$SRVPID"
STATUS=$?
SRVPID=""
[ "$STATUS" -eq 0 ] || fail "post-recovery SIGTERM drain exited $STATUS"

echo "server_smoke: OK (facts byte-identical, caches hit, clean drain," \
  "mmap backend identical, kill -9 recovery byte-identical)"
