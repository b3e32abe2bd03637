// Epoch time-series sampling of StatRegistry counters.
//
// The bench/tool story for "why is mode X slower" needs time-resolved
// curves, not end-of-run totals: miss rate over the run, traffic per
// channel per epoch, and so on. An EpochSampler snapshots a selected set
// of counters every N simulated ticks into a deterministic time series.
//
// The sampler rides the simulation's own EventQueue at kStats priority (so
// it observes a tick *after* all real work at that tick) and re-arms itself
// only while other events remain pending — it therefore never keeps an
// otherwise-drained queue alive, and System::simulate() terminates exactly
// as before.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/stats.h"

namespace dscoh {

class EpochSampler {
public:
    struct Params {
        Tick epochTicks = 0; ///< sampling period; 0 disables the sampler
        /// Counter-name prefixes to sample ("gpu.l2.", "net.ds.messages").
        /// Empty = every registered counter.
        std::vector<std::string> selectors;
    };

    struct Sample {
        Tick tick = 0;
        std::vector<std::uint64_t> values; ///< parallel to names()
    };

    /// The registry must outlive the sampler. Counters are resolved at
    /// start(), so call it after every component registered its stats.
    EpochSampler(EventQueue& queue, const StatRegistry& stats, Params params);

    /// Takes the epoch-0 snapshot and arms the periodic event. No-op when
    /// epochTicks == 0, and after snapRestore(): the sampler's event always
    /// dies during the drain that precedes a safe point (it only re-arms
    /// while other work is pending), so a restored run's time series is
    /// complete in the snapshot — restarting it would sample epochs the
    /// uninterrupted run never saw.
    void start();

    const std::vector<std::string>& names() const { return names_; }
    const std::vector<Sample>& samples() const { return samples_; }
    Tick epochTicks() const { return params_.epochTicks; }

    /// One "epochs" JSON object: {"epochTicks": N, "names": [...],
    /// "samples": [{"tick": T, "values": [...]}, ...]}. Values are
    /// cumulative counter snapshots; consumers diff adjacent samples for
    /// per-epoch rates.
    void writeJson(std::ostream& os) const;

    /// Serializes epochTicks (verified on restore), the resolved counter
    /// names and every sample taken so far. Safe points never have the
    /// sampling event armed, so there is no transient state to lose.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    /// Restores the series and freezes the sampler (see start()).
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }
    bool restored() const { return restored_; }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.expect(self.params_.epochTicks, "epoch sampler period");
        snap::seq(ar, self.names_, [](Ar& a, auto& name) { a.str(name); });
        const std::size_t width = self.names_.size();
        snap::seq(ar, self.samples_, [width](Ar& a, auto& s) {
            a.u64(s.tick);
            if constexpr (Ar::kLoading)
                s.values.resize(width);
            for (auto& v : s.values)
                a.u64(v);
        });
        if constexpr (Ar::kLoading)
            self.restored_ = true;
    }

    void takeSample();
    void arm();

    EventQueue& queue_;
    const StatRegistry& stats_;
    Params params_;
    std::vector<std::string> names_;
    std::vector<Sample> samples_;
    bool restored_ = false;
};

} // namespace dscoh
