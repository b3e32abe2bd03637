// Coherence and memory-system message definitions.
//
// One message struct serves every virtual network; unused fields stay at
// their defaults. Messages carry real data bytes (DataBlock) plus a byte
// mask for partial-line writes (write-combining direct stores, GPU
// write-through stores).
#pragma once

#include <cstdint>
#include <string>

#include "mem/data_block.h"
#include "sim/types.h"

namespace dscoh {

enum class MsgType : std::uint8_t {
    // Requests: cache agent -> home (memory controller).
    kGetS,    ///< read miss, wants shared (or exclusive if unshared) copy
    kGetX,    ///< write miss / upgrade, wants exclusive ownership
    kPut,     ///< writeback of an owned (dirty) line, carries data
    kUnblock, ///< requester finished its fill; home clears the busy state

    // Forwards: home -> cache agents.
    kSnpGetS, ///< snoop on behalf of a GetS requester
    kSnpGetX, ///< snoop-invalidate on behalf of a GetX requester
    kWbAck,   ///< home accepted (or dropped, if stale) a writeback

    // Responses.
    kSnpResp, ///< snooped agent -> home: did it supply data? was it a sharer?
    kData,    ///< data to the requester (from owner cache or from memory)
    kAck,     ///< snooped agent -> requester: no data, invalidated/not present

    // Direct-store extension (dedicated CPU -> GPU-L2 network).
    kDsPutX, ///< remote store: data+mask pushed into the GPU L2 (I -> MM)
    kDsAck,  ///< slice -> CPU: remote store globally performed
    kUcRead, ///< uncached CPU load of the DS region, served by the slice
    kUcData, ///< reply to kUcRead

    // GPU-internal network (per-SM L1 <-> L2 slice).
    kL1Load,     ///< line fetch for an SM L1 miss
    kL1LoadResp, ///< line data back to the SM
    kL1Store,    ///< write-through store (data+mask)
    kL1StoreAck, ///< store globally performed at the slice

    // Delivery hardening (only ever sent when fault injection is on).
    kDsNack, ///< slice -> CPU: DsPutX rejected (checksum mismatch), resend

    // Multi-GPU timestamp fast path (slice <-> remote home slice over the
    // DS network; only ever sent when tsLeaseTicks is configured).
    kTsRead, ///< slice -> home slice: lease request for a remotely-homed line
    kTsData, ///< home slice -> slice: leased data, txn = expiry tick
    kTsNack, ///< home slice -> slice: no lease, take the pull path
};

inline constexpr std::size_t kMsgTypeCount = 22;

const char* to_string(MsgType t);

/// True for message types that carry a full or partial data payload (used for
/// link-occupancy modelling and traffic accounting).
constexpr bool carriesData(MsgType t)
{
    switch (t) {
    case MsgType::kPut:
    case MsgType::kData:
    case MsgType::kDsPutX:
    case MsgType::kUcData:
    case MsgType::kL1LoadResp:
    case MsgType::kL1Store:
    case MsgType::kTsData:
        return true;
    default:
        return false;
    }
}

struct Message {
    MsgType type = MsgType::kAck;
    Addr addr = 0;           ///< line-aligned address of the subject line
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    NodeId requester = kInvalidNode; ///< original requester (snoops, data)
    std::uint64_t txn = 0;           ///< requester-assigned id, for debugging

    DataBlock data;
    ByteMask mask; ///< valid bytes for partial writes; full for kData

    // kData / kSnpResp bookkeeping.
    bool exclusive = false;    ///< kData: no other sharer exists, grantee may take M
    bool suppliedData = false; ///< kSnpResp: snooped agent sent data to requester
    bool wasSharer = false;    ///< kSnpResp: snooped agent held the line
    bool dirty = false;        ///< kPut/kData: payload differs from memory

    Tick sentAt = 0;

    /// TxnProfiler span id this message's transaction belongs to. 0 (the
    /// default, and always when no profiler is attached) is inert: every
    /// profiling hook ignores it. Excluded from messageChecksum like the
    /// timing fields — it is observability metadata, not protocol state.
    std::uint64_t prof = 0;

    /// End-to-end integrity check over the fields a corruption fault may
    /// touch. Zero (never stamped) when fault injection is off; receivers
    /// only verify it when hardening is on, so the field is otherwise inert.
    std::uint32_t checksum = 0;

    /// On-wire size: 8 B control header (+line payload when data-carrying).
    std::uint32_t wireBytes() const
    {
        return carriesData(type) ? 8 + kLineSize : 8;
    }
};

/// FNV-1a over the delivery-relevant identity and payload of @p msg,
/// folded to 32 bits. Excludes msg.checksum itself and timing fields.
inline std::uint32_t messageChecksum(const Message& msg)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<std::uint64_t>(msg.type));
    mix(msg.addr);
    mix(msg.txn);
    for (std::size_t i = 0; i < kLineSize; ++i) {
        h ^= msg.data.data()[i];
        h *= 0x100000001b3ull;
    }
    for (std::size_t i = 0; i < ByteMask::kWords; ++i)
        mix(msg.mask.word(i));
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

} // namespace dscoh
