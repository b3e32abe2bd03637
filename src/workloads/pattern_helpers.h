// Shared building blocks for the workload models: produce-phase program
// builders and per-thread access-pattern emitters. Every workload composes
// these with its own geometry and compute intensity.
//
// Elements are 4 bytes (float/int), matching the benchmarks' data types —
// footprints at Table II input sizes depend on this. producedValue() is
// compared under a 32-bit mask for 4-byte accesses, so verification works
// unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.h"

namespace dscoh::patterns {

/// Element size of every modelled array (float/int).
inline constexpr std::uint32_t kElem = 4;

/// Appends stores of producedValue() over [va, va+bytes), one element each,
/// with @p computePerStore CPU cycles between stores (models the host-side
/// initialization loop's arithmetic).
inline void produceArray(CpuProgram& prog, Addr va, std::uint64_t bytes,
                         Tick computePerStore = 2)
{
    for (std::uint64_t off = 0; off < bytes; off += kElem) {
        if (computePerStore > 0)
            prog.push_back(cpuCompute(computePerStore));
        prog.push_back(cpuStore(va + off, producedValue(va + off), kElem));
    }
}

/// Emits a grid-stride streaming read over an array: thread `tid` of
/// `totalThreads` checks every `totalThreads`-th element, with
/// @p computePerElem GPU cycles of work per element. Coalesced: consecutive
/// threads touch consecutive elements.
inline void gridStrideRead(ThreadBuilder& t, Addr base, std::uint64_t bytes,
                           std::uint32_t tid, std::uint32_t totalThreads,
                           std::uint32_t computePerElem,
                           std::uint32_t elemsPerThread = 0xffffffff,
                           bool check = true)
{
    const std::uint64_t elems = bytes / kElem;
    std::uint32_t done = 0;
    for (std::uint64_t i = tid; i < elems && done < elemsPerThread;
         i += totalThreads, ++done) {
        const Addr va = base + i * kElem;
        if (check)
            t.ldCheck(va, producedValue(va), kElem);
        else
            t.ld(va, kElem);
        if (computePerElem > 0)
            t.compute(computePerElem);
    }
}

/// Grid-stride streaming write of derived results.
inline void gridStrideWrite(ThreadBuilder& t, Addr base, std::uint64_t bytes,
                            std::uint32_t tid, std::uint32_t totalThreads,
                            std::uint32_t computePerElem,
                            std::uint32_t elemsPerThread = 0xffffffff)
{
    const std::uint64_t elems = bytes / kElem;
    std::uint32_t done = 0;
    for (std::uint64_t i = tid; i < elems && done < elemsPerThread;
         i += totalThreads, ++done) {
        const Addr va = base + i * kElem;
        t.st(va, producedValue(va) + 1, kElem);
        if (computePerElem > 0)
            t.compute(computePerElem);
    }
}

/// 2D 5-point stencil step over a rows x cols grid of 4-byte cells:
/// each thread owns a strip of cells, reads the cross neighbourhood from
/// `in` and writes `out`. Staged through shared memory when @p useSmem.
inline void stencil2d(ThreadBuilder& t, Addr in, Addr out, std::uint32_t rows,
                      std::uint32_t cols, std::uint32_t tid,
                      std::uint32_t totalThreads, std::uint32_t computePerCell,
                      bool useSmem, std::uint32_t cellsPerThread)
{
    const std::uint64_t cells = static_cast<std::uint64_t>(rows) * cols;
    std::uint32_t done = 0;
    for (std::uint64_t c = tid; c < cells && done < cellsPerThread;
         c += totalThreads, ++done) {
        const std::uint32_t r = static_cast<std::uint32_t>(c / cols);
        const std::uint32_t col = static_cast<std::uint32_t>(c % cols);
        t.ld(in + c * kElem, kElem);
        if (useSmem) {
            // Neighbours come from the scratchpad tile after one staging
            // load; this is why shared-memory codes barely touch the L2.
            t.smemSt();
            t.smemLd();
            t.smemLd();
        } else {
            if (col + 1 < cols)
                t.ld(in + (c + 1) * kElem, kElem);
            if (r + 1 < rows)
                t.ld(in + (c + cols) * kElem, kElem);
        }
        if (computePerCell > 0)
            t.compute(computePerCell);
        t.st(out + c * kElem, producedValue(out + c * kElem) ^ c, kElem);
    }
}

/// CSR-style sparse traversal: thread = node; reads its offset entry, then a
/// run of edge words, then the looked-up neighbour word in `nodeData`
/// (irregular indirection modelled with a multiplicative hash).
inline void csrTraverse(ThreadBuilder& t, Addr offsets, Addr edges,
                        Addr nodeData, std::uint32_t nodes,
                        std::uint32_t avgDegree, std::uint32_t node,
                        std::uint32_t computePerEdge)
{
    if (node >= nodes)
        return;
    // The offsets array is produced by the CPU and read-only in every graph
    // kernel: a checked load gives end-to-end value verification.
    const Addr off = offsets + static_cast<Addr>(node) * kElem;
    t.ldCheck(off, producedValue(off), kElem);
    const std::uint64_t firstEdge =
        static_cast<std::uint64_t>(node) * avgDegree;
    for (std::uint32_t e = 0; e < avgDegree; ++e) {
        t.ld(edges + (firstEdge + e) * kElem, kElem);
        // Neighbour lookup: deterministic pseudo-random target node.
        const std::uint64_t neighbor =
            (firstEdge + e) * 0x9e3779b97f4a7c15ull % nodes;
        t.ld(nodeData + neighbor * kElem, kElem);
        if (computePerEdge > 0)
            t.compute(computePerEdge);
    }
}

} // namespace dscoh::patterns
