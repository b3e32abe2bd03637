"""Per-layer work counts, summed over jobs from the stat counters every
dscoh job already publishes (results.json "stats"; queue.* appear only
where System::enableQueueStats was called, as perfbench_probe does).

Counter names are matched with the GPU, home and CPU-core index optional,
so single-GPU and sharded multi-GPU systems sum the same way.
"""

import re

# layer metric -> counter-name pattern (summed over every matching counter)
PATTERNS = {
    "sim.events": r"queue\.executed_events",
    "sim.schedule_calls": r"queue\.schedule_calls",
    "sim.heap_spilled_callbacks": r"queue\.heap_spilled_callbacks",
    # Each *.deferrals increment is one replay retry of a parked request.
    "coherence.replay_retries": r".*\.deferrals",
    "coherence.home_transactions": r"home\d*\.transactions",
    "coherence.home_queued": r"home\d*\.queued_requests",
    "coherence.lease_hits": r"gpu\d*\.l2\.slice\d+\.ts_lease_hits",
    "l2.demand_accesses": r"gpu\d*\.l2\.slice\d+\.demand_accesses",
    "l2.demand_misses": r"gpu\d*\.l2\.slice\d+\.demand_misses",
    # One AddressSpace::translate per lane access (vm keeps no counter).
    "gpu.lane_ops": r"gpu\d*\.sm\d+\.global_(loads|stores)",
    "gpu.coalesced_txns": r"gpu\d*\.sm\d+\.coalesced_transactions",
    "gpu.blocks": r"gpu\d*\.sm\d+\.blocks",
    "cpu.stores": r"cpu\.core\d*\.stores",
    "cpu.remote_stores": r"cpu\.core\d*\.remote_stores",
    "cpu.tlb_misses": r"cpu\.tlb\d*\.misses",
    "net.messages": r"net\.[a-z]+\.messages",
    "net.bytes": r"net\.[a-z]+\.bytes",
    "net.ds_messages": r"net\.ds\.messages",
    "mem.dram_accesses": r"dram\.ch\d+\.(reads|writes)",
    "dram.row_hits": r"dram\.ch\d+\.row_hits",
    "dram.row_misses": r"dram\.ch\d+\.row_misses",
}
_COMPILED = {k: re.compile(v + r"$") for k, v in PATTERNS.items()}


def ratio(num, den):
    return num / den if den else 0.0


def layer_counts(jobs):
    """Per-layer counts over `jobs`: results.json job objects, each with
    the probe's `produceTicks` (the produce phase's end tick) added."""
    sums = dict.fromkeys(PATTERNS, 0)
    ticks = produce = 0
    for job in jobs:
        for name, value in job["stats"].items():
            for key, rx in _COMPILED.items():
                if rx.match(name):
                    sums[key] += value
        ticks += job["metrics"]["ticks"]
        produce += job["produceTicks"]
    # l2.* and dram.* are inputs to the ratios below, not metrics.
    out = {k: v for k, v in sums.items()
           if not k.startswith(("l2.", "dram."))}
    out["coherence.retries_per_access"] = ratio(
        sums["coherence.replay_retries"], sums["l2.demand_accesses"])
    out["gpu.lanes_per_txn"] = ratio(sums["gpu.lane_ops"],
                                     sums["gpu.coalesced_txns"])
    out["gpu.l2_miss_ratio"] = ratio(sums["l2.demand_misses"],
                                     sums["l2.demand_accesses"])
    out["mem.row_hit_ratio"] = ratio(
        sums["dram.row_hits"], sums["dram.row_hits"] + sums["dram.row_misses"])
    out["core.sim_ticks"] = ticks
    out["core.produce_ticks"] = produce
    out["core.kernel_ticks"] = ticks - produce
    return out
