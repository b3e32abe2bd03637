#!/usr/bin/env sh
# Crash-recovery check for the sweep journal: kill a single-threaded sweep
# once it has journaled at least one completed job, finish it with
# --resume, and require the resumed results.json to be byte-identical to
# an uninterrupted reference sweep. Runs twice: once with SIGTERM
# (graceful shutdown path) and once with SIGKILL (the process gets no
# chance to clean up). The journal is the only recovery state, so neither
# the reference nor a killed sweep may leave a snapshot behind.
#
# Then checks the one snapshot path a sweep keeps, fork-after-produce: a
# cold and a warm --fork-produce sweep sharing one --snap-dir must both be
# byte-identical to the reference, and the warm one must have restored
# produce phases from the cold one's snapshots (restore-determinism is the
# snap subsystem's keystone property).
#
# Usage: scripts/kill_resume_check.sh [build_dir] [extra sweep args...]
#
# Extra arguments are passed through to every dscoh_sweep invocation, so
# e.g. `kill_resume_check.sh build --config examples/configs/ring4_lease.cfg`
# runs the whole crash-recovery property against a sharded multi-GPU sweep
# (see kill_resume_multigpu_check.sh).
set -eu

build_dir="${1:-build}"
[ "$#" -gt 0 ] && shift
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep="${repo_root}/${build_dir}/src/workloads/dscoh_sweep"
[ -x "${sweep}" ] || {
    echo "kill_resume_check: ${sweep} not built" >&2
    exit 1
}

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Fails when any snapshot exists under the work dir; $1 names the step.
expect_no_snapshots() {
    snaps="$(find "${work}" -name '*.snap')"
    if [ -n "${snaps}" ]; then
        echo "kill_resume_check: $1 left snapshots behind:" >&2
        echo "${snaps}" >&2
        exit 1
    fi
}

# Fails unless $1.json and $1.txt are byte-identical to the reference.
expect_reference() {
    cmp "${work}/reference.json" "$1.json" || {
        echo "kill_resume_check: $2 results.json differs from reference" >&2
        exit 1
    }
    cmp "${work}/reference.txt" "$1.txt" || {
        echo "kill_resume_check: $2 table differs from reference" >&2
        exit 1
    }
}

echo "kill_resume_check: reference sweep"
"${sweep}" small --json "${work}/reference.json" "$@" > "${work}/reference.txt"
expect_no_snapshots "the reference sweep"

# Interrupts a sweep with $1 (TERM or KILL) and verifies that --resume
# reconstructs the byte-identical reference output.
kill_and_resume() {
    sig="$1"
    shift # remaining args go through to the sweep
    out="${work}/resumed_${sig}"

    # Single worker so the signal reliably lands mid-sweep.
    echo "kill_resume_check: interrupted sweep (will be killed with SIG${sig})"
    "${sweep}" small --jobs 1 --json "${out}.json" "$@" > /dev/null 2>&1 &
    pid=$!

    journal="${out}.json.journal"
    tries=0
    while [ ! -s "${journal}" ]; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 600 ]; then
            echo "kill_resume_check: no journal after 60s" >&2
            exit 1
        fi
        if ! kill -0 "${pid}" 2> /dev/null; then
            echo "kill_resume_check: sweep finished before it could be killed" >&2
            exit 1
        fi
        sleep 0.1
    done
    kill "-${sig}" "${pid}"
    wait "${pid}" || true

    if [ -f "${out}.json" ]; then
        echo "kill_resume_check: killed sweep must not publish results.json" >&2
        exit 1
    fi
    expect_no_snapshots "the SIG${sig}-killed sweep"
    journaled="$(wc -l < "${journal}")"
    echo "kill_resume_check: SIG${sig} after ${journaled} journaled jobs"

    echo "kill_resume_check: resuming"
    "${sweep}" small --resume --json "${out}.json" "$@" \
        > "${out}.txt" 2> "${out}.log"
    grep "jobs replayed" "${out}.log" || {
        echo "kill_resume_check: resume replayed nothing" >&2
        exit 1
    }

    expect_reference "${out}" "resumed"
    echo "kill_resume_check: SIG${sig}-resumed sweep is byte-identical" \
         "to the reference"
}

kill_and_resume TERM "$@"
kill_and_resume KILL "$@"

# Cold then warm fork-produce sweep over one shared snapshot cache.
for run in cold warm; do
    out="${work}/fork_${run}"
    echo "kill_resume_check: ${run} --fork-produce sweep"
    "${sweep}" small --fork-produce --snap-dir "${work}/snapcache" \
        --json "${out}.json" "$@" > "${out}.txt" 2> "${out}.log"
    expect_reference "${out}" "${run} fork-produce"
done
saved="$(sed -n 's/.*fork-produce saved \([0-9]*\) .*/\1/p' \
    "${work}/fork_warm.log")"
if [ -z "${saved}" ] || [ "${saved}" -eq 0 ]; then
    echo "kill_resume_check: warm fork-produce sweep restored no produce" \
         "phase (saved '${saved}')" >&2
    exit 1
fi
echo "kill_resume_check: fork-produce sweeps are byte-identical to the" \
     "reference; the warm one saved ${saved} produce ticks"
