#include "gpu/gpu_device.h"

#include <cassert>
#include <utility>

namespace dscoh {

GpuDevice::GpuDevice(std::string name, SimContext& ctx, Params params,
                     std::vector<StreamingMultiprocessor*> sms)
    : SimObject(std::move(name), ctx), params_(params), sms_(std::move(sms))
{
    assert(!sms_.empty());
}

void GpuDevice::launch(const KernelDesc& kernel, InlineCallback onDone)
{
    assert(!active_ && "kernels launch serially");
    active_ = true;
    kernel_ = &kernel;
    nextBlock_ = 0;
    launchedAt_ = curTick();
    onDone_ = std::move(onDone);
    kernelsLaunched_.inc();
    if (TraceSession* t = tracing(TraceCat::kKernel))
        t->instant(TraceCat::kKernel, name(), "launch", curTick());

    queue().scheduleAfter(params_.launchLatency, [this] {
        for (StreamingMultiprocessor* sm : sms_)
            sm->beginKernel(*kernel_, *this);
        onSmIdle(); // zero-block grids complete immediately
    }, EventPriority::kCore);
}

std::optional<std::uint32_t> GpuDevice::nextBlock()
{
    if (nextBlock_ >= kernel_->blocks)
        return std::nullopt;
    blocksDispatched_.inc();
    return nextBlock_++;
}

void GpuDevice::onSmIdle()
{
    if (!active_)
        return;
    if (nextBlock_ < kernel_->blocks)
        return;
    for (const StreamingMultiprocessor* sm : sms_)
        if (!sm->idle())
            return;
    if (TraceSession* t = tracing(TraceCat::kKernel))
        t->span(TraceCat::kKernel, name(), "kernel", launchedAt_, curTick(),
                "blocks", kernel_->blocks);
    active_ = false;
    kernel_ = nullptr;
    InlineCallback done = std::move(onDone_);
    if (done)
        done();
}

void GpuDevice::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("kernels"), &kernelsLaunched_);
    registry.registerCounter(statName("blocks_dispatched"), &blocksDispatched_);
}

} // namespace dscoh
