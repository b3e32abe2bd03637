#!/usr/bin/env sh
# Crash-recovery check for the sweep SERVICE: start the daemon, submit two
# tenants' requests at mixed priorities, SIGKILL the daemon mid-flight
# (no chance to clean up — the service WAL plus each request's journal
# must carry the recovery), restart it on the same state directory, and
# require every request's results.json to be byte-identical to the same
# request run on a never-killed daemon. One more restart then checks that
# the daemon still answers status and list for the requests it finished.
#
# Usage: scripts/svc_kill_resume_check.sh [build_dir]
set -eu

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
svc="${repo_root}/${build_dir}/src/svc/dscoh_svc"
client="${repo_root}/${build_dir}/src/svc/dscoh_client"
[ -x "${svc}" ] && [ -x "${client}" ] || {
    echo "svc_kill_resume_check: ${svc} / ${client} not built" >&2
    exit 1
}

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "${daemon_pid}" ] && kill -9 "${daemon_pid}" 2> /dev/null || true
    rm -rf "${work}"
}
trap cleanup EXIT

# The integer member $2 of the JSON reply $1.
json_int() {
    printf '%s' "$1" | sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p"
}

# Waits until the daemon behind $1 answers a ping.
wait_ping() {
    tries=0
    while ! "${client}" --socket "$1" ping > /dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 300 ]; then
            echo "svc_kill_resume_check: daemon never answered ping" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# --- Reference: the same two requests on a daemon that is never killed.
ref_state="${work}/ref"
echo "svc_kill_resume_check: reference daemon"
"${svc}" --state "${ref_state}" --jobs 2 > "${work}/ref_daemon.log" 2>&1 &
daemon_pid=$!
wait_ping "${ref_state}/svc.sock"
"${client}" --socket "${ref_state}/svc.sock" submit \
    --tenant alice --priority 1 --only VA,NN > /dev/null
"${client}" --socket "${ref_state}/svc.sock" submit \
    --tenant bob --weight 2 --only BP > /dev/null
"${client}" --socket "${ref_state}/svc.sock" drain > /dev/null
ref_total_r000001="$(json_int "$("${client}" --socket \
    "${ref_state}/svc.sock" status r000001)" jobsTotal)"
ref_total_r000002="$(json_int "$("${client}" --socket \
    "${ref_state}/svc.sock" status r000002)" jobsTotal)"
"${client}" --socket "${ref_state}/svc.sock" shutdown > /dev/null
wait "${daemon_pid}" || true
daemon_pid=""
[ -f "${ref_state}/jobs/r000001/results.json" ] &&
    [ -f "${ref_state}/jobs/r000002/results.json" ] || {
    echo "svc_kill_resume_check: reference daemon published nothing" >&2
    exit 1
}

# --- Victim: same submissions, single worker so the kill lands mid-queue,
# SIGKILL once the first request's journal shows a completed job.
state="${work}/victim"
echo "svc_kill_resume_check: victim daemon (will be killed with SIGKILL)"
"${svc}" --state "${state}" --jobs 1 > "${work}/victim_daemon.log" 2>&1 &
daemon_pid=$!
wait_ping "${state}/svc.sock"
"${client}" --socket "${state}/svc.sock" submit \
    --tenant alice --priority 1 --only VA,NN > /dev/null
"${client}" --socket "${state}/svc.sock" submit \
    --tenant bob --weight 2 --only BP > /dev/null

tries=0
while ! [ -s "${state}/jobs/r000001/journal" ] &&
      ! [ -s "${state}/jobs/r000002/journal" ]; do
    tries=$((tries + 1))
    if [ "${tries}" -gt 600 ]; then
        echo "svc_kill_resume_check: no journaled job after 60s" >&2
        exit 1
    fi
    if ! kill -0 "${daemon_pid}" 2> /dev/null; then
        echo "svc_kill_resume_check: daemon died on its own" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "${daemon_pid}"
wait "${daemon_pid}" 2> /dev/null || true
daemon_pid=""
echo "svc_kill_resume_check: killed mid-flight"

# Both requests were accepted but at most one can have published.
published=0
[ -f "${state}/jobs/r000001/results.json" ] && published=$((published + 1))
[ -f "${state}/jobs/r000002/results.json" ] && published=$((published + 1))
[ "${published}" -lt 2 ] || {
    echo "svc_kill_resume_check: daemon finished before it could be killed" >&2
    exit 1
}

# --- Restart on the same state dir; recovery re-admits and finishes
# everything the WAL says is owed.
echo "svc_kill_resume_check: restarting on the same state dir"
"${svc}" --state "${state}" --jobs 2 > "${work}/restart_daemon.log" 2>&1 &
daemon_pid=$!
wait_ping "${state}/svc.sock"
"${client}" --socket "${state}/svc.sock" drain > /dev/null
"${client}" --socket "${state}/svc.sock" shutdown > /dev/null
wait "${daemon_pid}" || true
daemon_pid=""

for id in r000001 r000002; do
    cmp "${ref_state}/jobs/${id}/results.json" \
        "${state}/jobs/${id}/results.json" || {
        echo "svc_kill_resume_check: ${id} results differ from reference" >&2
        exit 1
    }
done
echo "svc_kill_resume_check: recovered results are byte-identical" \
     "to the never-killed daemon"

# --- Restart once more: both requests finished before this start, and
# the daemon must still answer for them with the WAL's terminal state,
# the reference's job count and every job done.
echo "svc_kill_resume_check: restarting again; finished requests stay known"
"${svc}" --state "${state}" --jobs 1 > "${work}/second_restart.log" 2>&1 &
daemon_pid=$!
wait_ping "${state}/svc.sock"
for id in r000001 r000002; do
    reply="$("${client}" --socket "${state}/svc.sock" status "${id}")" || {
        echo "svc_kill_resume_check: ${id} unknown after a restart" >&2
        exit 1
    }
    eval "want=\${ref_total_${id}}"
    case "${reply}" in
    *'"state": "done"'*) ;;
    *)
        echo "svc_kill_resume_check: ${id} not done after a restart:" \
             "${reply}" >&2
        exit 1
        ;;
    esac
    [ "$(json_int "${reply}" jobsTotal)" = "${want}" ] &&
        [ "$(json_int "${reply}" jobsDone)" = "${want}" ] || {
        echo "svc_kill_resume_check: ${id} counts differ after a restart" \
             "(want ${want} jobs): ${reply}" >&2
        exit 1
    }
done
"${client}" --socket "${state}/svc.sock" list | grep -q '"id": "r000002"' || {
    echo "svc_kill_resume_check: list forgot the finished requests" >&2
    exit 1
}
"${client}" --socket "${state}/svc.sock" shutdown > /dev/null
wait "${daemon_pid}" || true
daemon_pid=""
echo "svc_kill_resume_check: finished requests answer after a restart"

# --- ENOSPC pass: the same submissions on a daemon whose disk "fills up"
# shortly after the accepts land (deterministic injection, every durable
# write from op 25 on fails with ENOSPC). The daemon must degrade — stay
# up, answer stats, reject new submits with the degraded exit code — not
# crash or corrupt state. A SIGKILL plus a clean-disk restart then owes
# exactly the same bytes as the never-killed reference.
echo "svc_kill_resume_check: ENOSPC victim (disk fills after op 25)"
estate="${work}/enospc"
"${svc}" --state "${estate}" --jobs 1 \
    --iofault "enospc-ppm=1000000,op-start=25" \
    > "${work}/enospc_daemon.log" 2>&1 &
daemon_pid=$!
wait_ping "${estate}/svc.sock"
"${client}" --socket "${estate}/svc.sock" submit \
    --tenant alice --priority 1 --only VA,NN > /dev/null
"${client}" --socket "${estate}/svc.sock" submit \
    --tenant bob --weight 2 --only BP > /dev/null

tries=0
until "${client}" --socket "${estate}/svc.sock" stats 2> /dev/null |
    grep -q '"degraded": true'; do
    tries=$((tries + 1))
    if [ "${tries}" -gt 600 ]; then
        echo "svc_kill_resume_check: daemon never degraded under ENOSPC" >&2
        exit 1
    fi
    if ! kill -0 "${daemon_pid}" 2> /dev/null; then
        echo "svc_kill_resume_check: daemon died under ENOSPC" \
             "instead of degrading" >&2
        exit 1
    fi
    sleep 0.1
done
echo "svc_kill_resume_check: daemon degraded and stayed up"

# A degraded daemon sheds new work with the dedicated exit code (7).
rc=0
"${client}" --socket "${estate}/svc.sock" submit \
    --tenant carol --only MT > /dev/null 2>&1 || rc=$?
[ "${rc}" -eq 7 ] || {
    echo "svc_kill_resume_check: degraded submit exited ${rc}, want 7" >&2
    exit 1
}

kill -9 "${daemon_pid}"
wait "${daemon_pid}" 2> /dev/null || true
daemon_pid=""

echo "svc_kill_resume_check: restarting the ENOSPC victim on a clean disk"
"${svc}" --state "${estate}" --jobs 2 > "${work}/enospc_restart.log" 2>&1 &
daemon_pid=$!
wait_ping "${estate}/svc.sock"
"${client}" --socket "${estate}/svc.sock" drain > /dev/null
"${client}" --socket "${estate}/svc.sock" shutdown > /dev/null
wait "${daemon_pid}" || true
daemon_pid=""

for id in r000001 r000002; do
    cmp "${ref_state}/jobs/${id}/results.json" \
        "${estate}/jobs/${id}/results.json" || {
        echo "svc_kill_resume_check: ENOSPC ${id} results differ" \
             "from reference" >&2
        exit 1
    }
done
echo "svc_kill_resume_check: ENOSPC recovery is byte-identical" \
     "to the never-killed daemon"
