// Storage-fault-model configuration: what the IO injector may do to the
// durable-write path, with what probability and when.
//
// This is the storage-layer sibling of FaultConfig (network faults), but
// it belongs to the process, not to the simulated machine: only the
// --iofault spec sets it, and it is no part of SystemConfig or its hash.
// Probabilities are integer parts-per-million so a spec renders and parses
// back exactly, every field defaults to "no faults", and a default
// IoFaultConfig is inert — nothing consults the injector unless it is
// installed, and installation is gated on enabled().
//
// The fault vocabulary covers the failure modes the hardened write paths
// (snap::atomicWriteFile, snap::durableAppendLine, the service WAL) must
// survive:
//   - short write:  only a prefix of one write(2) lands, call fails
//   - torn write:   a prefix lands and the PROCESS DIES mid-write (the
//                   kill-at-the-worst-moment case; a torn WAL record)
//   - ENOSPC:       disk full — non-retryable, callers must degrade
//   - EIO:          transient device error — retryable
//   - fsync fail:   the durability barrier itself fails
//   - crash before/after rename: process death in the narrowest windows of
//                   a temp+rename publication
#pragma once

#include <cstdint>
#include <string>

namespace dscoh::fault {

struct IoFaultConfig {
    // Per-operation fault probabilities, parts per million (1'000'000 =
    // every operation). Write operations draw in the fixed order ENOSPC,
    // EIO, torn, short; a fired fault draws nothing further.
    std::uint32_t shortWritePpm = 0;
    std::uint32_t tornWritePpm = 0;
    std::uint32_t enospcPpm = 0;
    std::uint32_t eioPpm = 0;
    std::uint32_t fsyncFailPpm = 0;
    std::uint32_t crashBeforeRenamePpm = 0;
    std::uint32_t crashAfterRenamePpm = 0;

    /// Where a torn/short write tears: percent of the payload that lands
    /// before the cut (clamped to [0, 100]).
    std::uint32_t tornOffsetPct = 50;

    /// Probabilistic faults fire only for operation numbers in
    /// [opStart, opEnd), or always when opEnd == 0. Each injector call on
    /// an eligible path counts as one operation.
    std::uint64_t opStart = 0;
    std::uint64_t opEnd = 0;

    /// Total injected faults cap (0 = unlimited). Bounds how sick one
    /// process incarnation can get, so a chaos restart always makes
    /// progress.
    std::uint64_t maxFaults = 0;

    /// Only paths containing this substring are eligible (empty = all).
    std::string pathFilter;

    /// Seed of the injector's private RNG stream.
    std::uint64_t seed = 1;

    /// True when this configuration can ever perturb an operation.
    bool enabled() const
    {
        return shortWritePpm != 0 || tornWritePpm != 0 || enospcPpm != 0 ||
               eioPpm != 0 || fsyncFailPpm != 0 ||
               crashBeforeRenamePpm != 0 || crashAfterRenamePpm != 0;
    }
};

} // namespace dscoh::fault
