// Text serialization for SystemConfig: simple "key = value" lines with
// '#' comments, so experiment configurations can live next to their
// results. Keys mirror the field names; dumpConfig() output round-trips
// through applyConfigText().
#pragma once

#include <cstdint>
#include <string>

#include "core/config.h"

namespace dscoh {

/// Applies "key = value" lines from @p text onto @p cfg, then checks the
/// result with validateConfig(). Numbers must be non-negative integers
/// that fit their field. On failure writes a "line N: ..." (or
/// validateConfig) message to @p error and returns false (cfg may be
/// partially updated).
bool applyConfigText(const std::string& text, SystemConfig* cfg,
                     std::string* error);

/// Refuses every machine that cannot be built or would silently skip
/// work: a zero count (GPUs, cores, SMs, resident blocks, RSB and store
/// buffer entries, MSHRs, cache ways, lanes), a slice or channel count
/// that is not a power of two, and a cache geometry CacheArray refuses
/// (CacheGeometry::problem()). On failure names the first offending key
/// in @p error and returns false. applyConfigText() and System's
/// constructor both call it.
bool validateConfig(const SystemConfig& cfg, std::string* error);

/// Reads @p path and applies it. File-open failures land in @p error.
bool loadConfigFile(const std::string& path, SystemConfig* cfg,
                    std::string* error);

/// Serializes every supported key (round-trippable).
std::string dumpConfig(const SystemConfig& cfg);

/// Stable FNV-1a hash over every behavior-relevant field of @p cfg.
/// Snapshots embed this value and a
/// restore refuses to proceed when the running config hashes differently,
/// since component geometry and event timing would silently diverge.
std::uint64_t configHashOf(const SystemConfig& cfg);

} // namespace dscoh
