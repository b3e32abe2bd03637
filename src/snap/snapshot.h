// The Snapshottable interface.
//
// Snapshots are taken only at *safe points*: the event queue is fully
// drained, so no closure-captured in-flight work exists and the entire
// machine state is plain data (cache arrays, directory registries, timing
// reservations, counters, RNG streams). Components that buffer transient
// work (MSHRs, writeback buffers, pending-request deques) therefore do not
// serialize it — saving *asserts it is empty* and throws SnapError
// otherwise, which turns "snapshot taken at a non-safe point" into a loud
// failure instead of silent state loss.
//
// A component with state describes its layout once, in a static
//   template <class Self, class Ar> static void snapState(Self&, Ar&);
// walked with (const X, SnapWriter) to save and (X, SnapReader) to
// restore (serializer.h has the shared vocabulary). Its snapSave and
// snapRestore overrides are one-line forwards to it; what differs by
// direction — the save-only quiescence guards, the load-only fixups —
// sits under `if constexpr (Ar::kLoading)`.
#pragma once

#include <string>

#include "snap/serializer.h"

namespace dscoh::snap {

/// Implemented by every component with state that must survive a
/// checkpoint. SimObject derives from this with no-op defaults, so purely
/// stateless components (and ones whose state is fully transient and
/// drained at safe points) need nothing.
class Snapshottable {
public:
    virtual ~Snapshottable() = default;

    /// Appends this component's persistent state to the writer's currently
    /// open section. Must throw SnapError if the component holds transient
    /// in-flight state (the caller tried to snapshot off a safe point).
    virtual void snapSave(SnapWriter& writer) const
    {
        static_cast<void>(writer);
    }

    /// Restores state previously written by snapSave. Called on a freshly
    /// constructed component (same config — the caller verified the config
    /// hash); must consume its section exactly.
    virtual void snapRestore(SnapReader& reader)
    {
        static_cast<void>(reader);
    }

protected:
    /// Save-side quiescence guard for snapState implementations.
    static void requireQuiesced(bool quiesced, const std::string& what)
    {
        if (!quiesced)
            throw SnapError("snapshot off a safe point: " + what);
    }
};

} // namespace dscoh::snap
