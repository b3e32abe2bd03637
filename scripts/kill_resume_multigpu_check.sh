#!/usr/bin/env sh
# Crash-recovery check against a sharded multi-GPU sweep: the same
# kill/resume and fork-produce byte-identity properties as
# kill_resume_check.sh, but on examples/configs/ring2_lease.cfg: the DS
# region split across 2 GPUs (page-interleaved directory shards), 2 CPU
# cores, the ring DS network and the timestamp fast path armed — so the
# journal replay has to reproduce sharded results exactly, and a
# produce-phase snapshot has to carry per-shard directory state and lease
# epochs through the restore.
#
# Usage: scripts/kill_resume_multigpu_check.sh [build_dir]
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
exec "${here}/kill_resume_check.sh" "${1:-build}" \
    --config "${here}/../examples/configs/ring2_lease.cfg"
