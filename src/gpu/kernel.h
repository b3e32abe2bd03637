// GPU kernel abstraction.
//
// A kernel is a grid of thread blocks; every thread's behaviour is produced
// by a body callback that records a SIMT op stream into a ThreadBuilder.
// Threads of one warp must record the same number of ops (lockstep);
// divergence is modelled with predication (nop()).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace dscoh {

struct GpuOp {
    enum class Kind : std::uint8_t {
        kLoad,      ///< global load through L1/L2
        kStore,     ///< global store, write-through at the L1
        kSmemLoad,  ///< shared-memory (scratchpad) access, no cache traffic
        kSmemStore,
        kCompute, ///< ALU work, `cycles` GPU cycles
        kNop,     ///< predicated-off lane
    };

    // Widest fields first: 24 bytes, so a warp's step-major op array
    // stays dense (StreamingMultiprocessor::Warp).
    Addr vaddr = 0;
    std::uint64_t value = 0; ///< store value / expected load value
    std::uint32_t cycles = 1;
    /// Access bytes: 1, 2, 4 or 8, at an address that is a multiple of it
    /// (the trace frontend rejects anything else), so an access never
    /// crosses a cache line.
    std::uint8_t size = 4;
    Kind kind = Kind::kNop;
    bool check = false; ///< verify loaded value against `value`
};
static_assert(sizeof(GpuOp) == 24, "GpuOp layout grew");

/// Records one thread's op stream. The SM records a whole warp's lanes
/// into one builder, back to back, and clear()s it for the next warp.
class ThreadBuilder {
public:
    void ld(Addr va, std::uint32_t size = 4)
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kLoad;
        op.vaddr = va;
        op.size = accessSize(size);
        ops_.push_back(op);
    }

    void ldCheck(Addr va, std::uint64_t expect, std::uint32_t size = 4)
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kLoad;
        op.vaddr = va;
        op.size = accessSize(size);
        op.value = expect;
        op.check = true;
        ops_.push_back(op);
    }

    void st(Addr va, std::uint64_t value, std::uint32_t size = 4)
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kStore;
        op.vaddr = va;
        op.size = accessSize(size);
        op.value = value;
        ops_.push_back(op);
    }

    void smemLd()
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kSmemLoad;
        ops_.push_back(op);
    }

    void smemSt()
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kSmemStore;
        ops_.push_back(op);
    }

    void compute(std::uint32_t cycles)
    {
        GpuOp op;
        op.kind = GpuOp::Kind::kCompute;
        op.cycles = cycles;
        ops_.push_back(op);
    }

    void nop() { ops_.push_back(GpuOp{}); }

    const std::vector<GpuOp>& ops() const { return ops_; }
    /// Drops the recorded ops and keeps the capacity for the next warp.
    void clear() { ops_.clear(); }

private:
    static std::uint8_t accessSize(std::uint32_t size)
    {
        assert(size == 1 || size == 2 || size == 4 || size == 8);
        return static_cast<std::uint8_t>(size);
    }

    std::vector<GpuOp> ops_;
};

struct KernelDesc {
    std::string name;
    std::uint32_t blocks = 1;
    std::uint32_t threadsPerBlock = 32;
    /// Which GPU device runs this kernel (multi-GPU scale-out; 0 is the
    /// only device in the default configuration).
    std::uint32_t gpu = 0;
    /// Table II "Shared" column: the kernel stages data in the SM-local
    /// scratchpad, largely bypassing the L2 for its inner loops.
    bool usesSharedMemory = false;
    /// Produces thread (blockId, threadId)'s op stream.
    std::function<void(ThreadBuilder&, std::uint32_t, std::uint32_t)> body;
};

} // namespace dscoh
