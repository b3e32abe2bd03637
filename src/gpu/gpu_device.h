// GPU device: dispatches kernel grids across the SMs and tracks completion.
#pragma once

#include <optional>
#include <vector>

#include "gpu/sm.h"

namespace dscoh {

class GpuDevice final : public SimObject {
public:
    struct Params {
        Tick launchLatency = 2000; ///< driver/runtime launch overhead, ticks
    };

    GpuDevice(std::string name, SimContext& ctx, Params params,
              std::vector<StreamingMultiprocessor*> sms);

    /// Launches @p kernel; @p onDone fires when every block retired and all
    /// write-through stores are globally performed. Kernels are serial (the
    /// benchmarks under study launch one grid at a time).
    void launch(const KernelDesc& kernel, InlineCallback onDone);

    bool busy() const { return active_; }

    void regStats(StatRegistry& registry) override;

    /// Kernels never span a safe point; the device only asserts that.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading)
            requireQuiesced(!self.active_,
                            self.name() + " has an active kernel");
        ar.expect(std::uint8_t{1}, "quiescence marker");
    }

    /// The next block id of the active grid for an SM to run (nullopt
    /// once the grid is exhausted).
    std::optional<std::uint32_t> nextBlock();
    /// An SM drained; completes the kernel once every SM is idle and no
    /// block is left.
    void onSmIdle();

private:
    Params params_;
    std::vector<StreamingMultiprocessor*> sms_;

    const KernelDesc* kernel_ = nullptr;
    std::uint32_t nextBlock_ = 0;
    bool active_ = false;
    Tick launchedAt_ = 0; ///< launch tick of the active kernel (trace span)
    InlineCallback onDone_;

    Counter kernelsLaunched_;
    Counter blocksDispatched_;
};

} // namespace dscoh
