#include "core/system.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/config_io.h"
#include "snap/serializer.h"

namespace dscoh {

const char* to_string(CoherenceMode m)
{
    switch (m) {
    case CoherenceMode::kCcsm:
        return "CCSM";
    case CoherenceMode::kDirectStore:
        return "DirectStore";
    case CoherenceMode::kDirectStoreOnly:
        return "DirectStoreOnly";
    }
    return "?";
}

void SystemConfig::printTable(std::ostream& os) const
{
    const auto kb = [](std::uint64_t b) { return b / 1024; };
    os << "SYSTEM CONFIGURATION (" << to_string(mode) << ")\n"
       << "CPU\n"
       << "  Cores      " << cpuCores << "\n"
       << "  L1D cache  " << kb(cpuL1dSize) << "KB, " << cpuL1dWays << " ways\n"
       << "  L1I cache  " << kb(cpuL1iSize) << "KB, " << cpuL1iWays << " ways\n"
       << "  L2 cache   " << kb(cpuL2Size) / 1024 << "MB, " << cpuL2Ways
       << " ways\n"
       << "GPU\n"
       << "  SMs        " << numSms << " - " << lanesPerSm
       << " lanes per SM @ 1.4GHz\n"
       << "  L1 cache   " << kb(gpuL1Size) << "KB + " << kb(gpuSharedMemBytes)
       << "KB shared memory, " << gpuL1Ways << " ways\n"
       << "  L2 cache   " << kb(gpuL2Size) / 1024 << "MB, " << gpuL2Ways
       << " ways, " << gpuL2Slices << " slices\n"
       << "MEMORY\n"
       << "  Memory     " << memBytes / (1024 * 1024 * 1024) << "GB, 1 channel, "
       << dram.ranks << " ranks, " << dram.banksPerRank << " banks @ 1GHz\n"
       << "  Line size  " << kLineSize << "B across the whole system\n";
}

TraceSession& System::enableTracing(std::uint32_t catMask)
{
    if (ctx_.trace == nullptr)
        ctx_.trace = std::make_unique<TraceSession>(catMask);
    // Either enable order works: whichever of tracing/profiling comes
    // second completes the flow-event cross-wiring.
    if (ctx_.txnprof != nullptr)
        ctx_.txnprof->attachTrace(ctx_.trace.get());
    return *ctx_.trace;
}

TxnProfiler& System::enableTxnProfiler(const TxnProfiler::Params& params)
{
    if (ctx_.txnprof == nullptr)
        ctx_.txnprof = std::make_unique<TxnProfiler>(params);
    if (ctx_.trace != nullptr)
        ctx_.txnprof->attachTrace(ctx_.trace.get());
    return *ctx_.txnprof;
}

EpochSampler& System::enableEpochSampler(EpochSampler::Params params)
{
    if (sampler_ == nullptr)
        sampler_ = std::make_unique<EpochSampler>(ctx_.queue, stats_,
                                                  std::move(params));
    return *sampler_;
}

CoherenceChecker& System::enableChecker()
{
    if (ctx_.checker != nullptr)
        return *ctx_.checker;
    ctx_.checker = std::make_unique<CoherenceChecker>();
    CoherenceChecker& checker = *ctx_.checker;
    checker.setBackingStore(store_.get());
    checker.setHomeProbe([this] {
        std::size_t busy = 0;
        for (const auto& homePtr : homes_)
            busy += homePtr->busyLines();
        return busy;
    });

    const auto addAgent = [&checker](const CacheAgent& agent,
                                     std::string label) {
        CoherenceChecker::AgentView view;
        view.name = std::move(label);
        view.stateOf = [&agent](Addr a) { return agent.stateOf(a); };
        view.dataOf = [&agent](Addr a) { return agent.peekLine(a); };
        view.mshrInFlight = [&agent] { return agent.mshrInFlight(); };
        view.writebackEntries = [&agent] {
            return agent.writebackBufferEntries();
        };
        view.blockedThunks = [&agent] { return agent.blockedRequests(); };
        view.forEachLine = [&agent](const CoherenceChecker::LineFn& fn) {
            agent.forEachLine([&fn](const CacheAgent::Line& line) {
                fn(line.base, line.meta.state, line.data);
            });
            agent.forEachWriteback(fn);
        };
        checker.addAgent(std::move(view));
    };
    addAgent(*cpuAgent_, "cpu");
    for (std::size_t i = 0; i < slices_.size(); ++i)
        addAgent(*slices_[i], sliceCheckerLabel(i));
    return checker;
}

std::string System::sliceCheckerLabel(std::size_t flatIndex) const
{
    const std::size_t g = flatIndex / config_.gpuL2Slices;
    const std::size_t s = flatIndex % config_.gpuL2Slices;
    if (g == 0)
        return "slice" + std::to_string(s);
    return "gpu" + std::to_string(g) + ".slice" + std::to_string(s);
}

namespace {

/// @p config once validateConfig() accepts it, so no member is built from
/// a machine that cannot be built.
const SystemConfig& validated(const SystemConfig& config)
{
    if (std::string error; !validateConfig(config, &error))
        throw std::invalid_argument("system config: " + error);
    return config;
}

} // namespace

System::System(const SystemConfig& config)
    : config_(validated(config)),
      homeMap_(config.numGpus, config.shardPolicy, config.gpuL2Slices,
               config.cpuCores, config.numSms)
{
    // Instance-0 component names are the historical single-GPU strings so
    // every stat key, snapshot section and checker label of a 1-GPU /
    // 1-core config stays byte-identical to the pre-sharding simulator.
    const auto gpuPrefix = [](std::uint32_t g) {
        return g == 0 ? std::string("gpu.")
                      : "gpu" + std::to_string(g) + ".";
    };
    if (config_.eventTieBreakSeed != 0)
        ctx_.queue.setTieBreakShuffle(config_.eventTieBreakSeed);
    store_ = std::make_unique<BackingStore>(config_.memBytes);
    space_ = std::make_unique<AddressSpace>(config_.memBytes);
    dram_ = std::make_unique<DramPool>("dram", ctx_, *store_, config_.dram,
                                       config_.memChannels);

    requestNet_ = std::make_unique<Network>("net.request", ctx_,
                                            config_.coherenceNet);
    forwardNet_ = std::make_unique<Network>("net.forward", ctx_,
                                            config_.coherenceNet);
    responseNet_ = std::make_unique<Network>("net.response", ctx_,
                                             config_.coherenceNet);
    dsNet_ = std::make_unique<Network>("net.ds", ctx_, config_.dsNet);
    gpuNet_ = std::make_unique<Network>("net.gpu", ctx_, config_.gpuNet);

    // --- fault injection ---------------------------------------------------
    // One injector per selected network, each on its own salted RNG stream.
    // Unsafe fault classes (drop/dup/corrupt/link-down) only make sense on
    // the dedicated DS network, whose protocol this PR hardens against
    // them; on the coherence and GPU vnets the injector degrades to
    // delay-only (delays never violate the protocols' ordering
    // assumptions: per-(src,dst) FIFO is preserved).
    const auto attachFault = [this](Network& net, std::uint32_t bit,
                                    bool unsafeAllowed, std::uint64_t salt) {
        if ((config_.faultNets & bit) == 0)
            return static_cast<FaultInjector*>(nullptr);
        FaultConfig fc = config_.faults;
        if (!unsafeAllowed) {
            fc.dropPpm = 0;
            fc.dupPpm = 0;
            fc.corruptPpm = 0;
            fc.linkDownFrom = 0;
            fc.linkDownUntil = 0;
        }
        if (!fc.enabled())
            return static_cast<FaultInjector*>(nullptr);
        faults_.push_back(std::make_unique<FaultInjector>(
            net.name() + ".fault", ctx_, fc, salt));
        FaultInjector* inj = faults_.back().get();
        net.attachFaultInjector(inj);
        return inj;
    };
    attachFault(*requestNet_, kFaultNetRequest, false, 0);
    attachFault(*forwardNet_, kFaultNetForward, false, 1);
    attachFault(*responseNet_, kFaultNetResponse, false, 2);
    dsFault_ = attachFault(*dsNet_, kFaultNetDs, true, 3);
    attachFault(*gpuNet_, kFaultNetGpu, false, 4);

    // --- home controllers (one directory shard per GPU) -------------------
    for (std::uint32_t h = 0; h < config_.numGpus; ++h) {
        HomeController::Params homeParams;
        homeParams.self = homeMap_.homeNode(h);
        homeParams.requestNet = requestNet_.get();
        homeParams.forwardNet = forwardNet_.get();
        homeParams.responseNet = responseNet_.get();
        homeParams.dram = dram_.get();
        homeParams.store = store_.get();
        homeParams.directoryMode = config_.directoryHome;
        // Hammer broadcast reaches every cache that may hold the line: the
        // CPU agent and the matching slice of every GPU. SIII-H replacement
        // mode has no CPU<->GPU coherence to keep: the CPU only caches
        // private data (which no slice may hold) and the slices partition
        // the shared addresses among themselves, so the home never needs to
        // snoop anyone and every transaction is a plain memory fetch. This
        // is the protocol-simplicity claim made concrete (see
        // bench/ablation_replacement).
        homeParams.homeMap = homeMap_;
        homeParams.noSnoop = config_.mode == CoherenceMode::kDirectStoreOnly;
        // Misrouted requests (a bug in homeFor routing, or a scenario
        // mutation) are reported to the attached checker instead of being
        // silently ordered by the wrong shard.
        homeParams.shardId = h;
        homes_.push_back(std::make_unique<HomeController>(
            h == 0 ? std::string("home") : "home" + std::to_string(h), ctx_,
            std::move(homeParams)));
    }

    // --- CPU side ---------------------------------------------------------
    CacheAgent::Params cpuL2;
    cpuL2.geometry.sizeBytes = config_.cpuL2Size;
    cpuL2.geometry.ways = config_.cpuL2Ways;
    cpuL2.geometry.replacement = config_.replacement;
    cpuL2.geometry.replacementSeed = config_.seed;
    cpuL2.mshrs = config_.agentMshrs;
    cpuL2.writebackEntries = config_.writebackEntries;
    cpuL2.self = HomeMap::kCpuAgentNode;
    cpuL2.homeMap = homeMap_;
    cpuL2.requestNet = requestNet_.get();
    cpuL2.forwardNet = forwardNet_.get();
    cpuL2.responseNet = responseNet_.get();
    cpuL2.snoopTagLatency = config_.cpuSnoopTagLatency;
    cpuL2.dataSupplyLatency = config_.cpuDataSupplyLatency;
    cpuL2.dataSupplyInterval = config_.cpuDataSupplyInterval;
    cpuL2.injectBug = config_.injectBug;

    CpuCacheAgent::L1Params cpuL1;
    cpuL1.geometry.sizeBytes = config_.cpuL1dSize;
    cpuL1.geometry.ways = config_.cpuL1dWays;
    cpuL1.geometry.replacement = config_.replacement;
    cpuL1.geometry.replacementSeed = config_.seed + 1;
    cpuAgent_ = std::make_unique<CpuCacheAgent>("cpu.cache", ctx_, cpuL2,
                                                cpuL1);

    tlb_ = std::make_unique<Tlb>("cpu.tlb", ctx_, *space_, config_.tlb);

    for (std::uint32_t c = 0; c < config_.cpuCores; ++c) {
        CpuCore::Params coreParams;
        coreParams.l1Latency = config_.cpuL1Latency;
        coreParams.l2Latency = config_.cpuL2Latency;
        coreParams.storeBufferEntries = config_.storeBufferEntries;
        coreParams.rsbEntries = config_.rsbEntries;
        coreParams.self = homeMap_.cpuCoreNode(c);
        coreParams.dsNet = dsNet_.get();
        coreParams.homeMap = homeMap_;
        coreParams.dsAckTimeout = config_.dsAckTimeout;
        coreParams.dsMaxRetries = config_.dsMaxRetries;
        coreParams.dsInFlightMax = config_.dsInFlightMax;
        // Only kDirectStore retains the baseline coherent path to degrade
        // to; under kDirectStoreOnly the push network is the sole mechanism
        // and the CPU must keep retrying through an outage.
        coreParams.dsFallback = config_.mode == CoherenceMode::kDirectStore;
        // Drain window before a fallback applies: the longest a stale
        // DsPutX copy can still be on the wire (hop + fault delay + slice
        // tag lookup) plus generous slack for port-serialization backlog.
        // Correctness does not hinge on the bound — the slice's merge-only
        // mode keeps even a straggler coherent — it just avoids needless
        // churn.
        coreParams.dsMslTicks = config_.dsNet.hopLatency +
                                config_.faults.delayTicks +
                                config_.gpuL2TagLatency + 2048;
        coreParams.dsVerifyChecksum =
            config_.dsAckTimeout != 0 && dsFault_ != nullptr;
        coreParams.dsFault = dsFault_;
        cpuCores_.push_back(std::make_unique<CpuCore>(
            c == 0 ? std::string("cpu.core") : "cpu.core" + std::to_string(c),
            ctx_, std::move(coreParams), *tlb_, *cpuAgent_));
    }

    // --- GPU side ----------------------------------------------------------
    for (std::uint32_t g = 0; g < config_.numGpus; ++g) {
        for (std::uint32_t s = 0; s < config_.gpuL2Slices; ++s) {
            CacheAgent::Params sliceAgent;
            sliceAgent.geometry.sizeBytes = config_.gpuL2SliceBytes();
            sliceAgent.geometry.ways = config_.gpuL2Ways;
            sliceAgent.geometry.setShift = homeMap_.sliceBits();
            sliceAgent.geometry.replacement = config_.replacement;
            sliceAgent.geometry.replacementSeed =
                config_.seed + 10 + g * config_.gpuL2Slices + s;
            sliceAgent.mshrs = config_.gpuL2Mshrs;
            sliceAgent.writebackEntries = config_.writebackEntries;
            sliceAgent.self = homeMap_.sliceNode(g, s);
            sliceAgent.homeMap = homeMap_;
            sliceAgent.requestNet = requestNet_.get();
            sliceAgent.forwardNet = forwardNet_.get();
            sliceAgent.responseNet = responseNet_.get();
            sliceAgent.snoopTagLatency = config_.gpuSnoopTagLatency;
            sliceAgent.dataSupplyLatency = config_.gpuDataSupplyLatency;
            sliceAgent.dataSupplyInterval = config_.gpuDataSupplyInterval;
            sliceAgent.injectBug = config_.injectBug;

            GpuL2Slice::SliceParams sliceParams;
            sliceParams.tagLatency = config_.gpuL2TagLatency;
            sliceParams.gpuNet = gpuNet_.get();
            sliceParams.dsNet = dsNet_.get();
            sliceParams.dram = dram_.get();
            sliceParams.prefetchDepth = config_.gpuL2PrefetchDepth;
            sliceParams.harden = config_.dsAckTimeout != 0;
            sliceParams.mergeOnly =
                sliceParams.harden &&
                config_.mode == CoherenceMode::kDirectStore;
            sliceParams.verifyChecksum =
                sliceParams.harden && dsFault_ != nullptr;
            sliceParams.tsLeaseTicks = config_.tsLeaseTicks;
            sliceParams.myGpu = g;
            slices_.push_back(std::make_unique<GpuL2Slice>(
                gpuPrefix(g) + "l2.slice" + std::to_string(s), ctx_,
                sliceAgent, sliceParams));
        }

        for (std::uint32_t i = 0; i < config_.numSms; ++i) {
            StreamingMultiprocessor::Params smParams;
            smParams.lanes = config_.lanesPerSm;
            smParams.maxResidentBlocks = config_.maxResidentBlocks;
            smParams.l1Latency = config_.gpuL1Latency;
            smParams.smemLatency = config_.gpuSmemLatency;
            smParams.maxOutstandingStores = config_.maxOutstandingStores;
            smParams.self = homeMap_.smNode(g, i);
            smParams.gpuNet = gpuNet_.get();
            smParams.homeMap = homeMap_;
            smParams.gpu = g;
            smParams.l1Geometry.sizeBytes = config_.gpuL1Size;
            smParams.l1Geometry.ways = config_.gpuL1Ways;
            smParams.l1Geometry.replacement = config_.replacement;
            smParams.l1Geometry.replacementSeed =
                config_.seed + 100 + g * config_.numSms + i;
            sms_.push_back(std::make_unique<StreamingMultiprocessor>(
                gpuPrefix(g) + "sm" + std::to_string(i), ctx_,
                std::move(smParams), *space_));
        }

        std::vector<StreamingMultiprocessor*> smPtrs;
        for (std::uint32_t i = 0; i < config_.numSms; ++i)
            smPtrs.push_back(sms_[g * config_.numSms + i].get());
        GpuDevice::Params devParams;
        devParams.launchLatency = config_.kernelLaunchLatency;
        gpuDevices_.push_back(std::make_unique<GpuDevice>(
            gpuPrefix(g) + "device", ctx_, devParams, std::move(smPtrs)));
    }

    // --- wiring -------------------------------------------------------------
    // Every controller connects through a compile-time member binding: the
    // per-message hop is one indirect call, with no std::function in the way.
    for (std::uint32_t h = 0; h < config_.numGpus; ++h) {
        HomeController* homePtr = homes_[h].get();
        requestNet_->connect(
            homeMap_.homeNode(h),
            Network::handlerFor<&HomeController::handleRequest>(homePtr));
        responseNet_->connect(
            homeMap_.homeNode(h),
            Network::handlerFor<&HomeController::handleResponse>(homePtr));
    }
    forwardNet_->connect(
        HomeMap::kCpuAgentNode,
        Network::handlerFor<&CacheAgent::handleForward>(cpuAgent_.get()));
    responseNet_->connect(
        HomeMap::kCpuAgentNode,
        Network::handlerFor<&CacheAgent::handleResponse>(cpuAgent_.get()));
    for (std::uint32_t c = 0; c < config_.cpuCores; ++c) {
        dsNet_->connect(
            homeMap_.cpuCoreNode(c),
            Network::handlerFor<&CpuCore::handleDsMessage>(
                cpuCores_[c].get()));
    }
    for (std::uint32_t g = 0; g < config_.numGpus; ++g) {
        for (std::uint32_t s = 0; s < config_.gpuL2Slices; ++s) {
            GpuL2Slice* slicePtr =
                slices_[g * config_.gpuL2Slices + s].get();
            const NodeId node = homeMap_.sliceNode(g, s);
            forwardNet_->connect(
                node,
                Network::handlerFor<&GpuL2Slice::handleForward>(slicePtr));
            responseNet_->connect(
                node,
                Network::handlerFor<&GpuL2Slice::handleResponse>(slicePtr));
            dsNet_->connect(
                node,
                Network::handlerFor<&GpuL2Slice::handleDsMessage>(slicePtr));
            gpuNet_->connect(
                node,
                Network::handlerFor<&GpuL2Slice::handleGpuMessage>(slicePtr));
        }
    }
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        gpuNet_->connect(
            homeMap_.smNode(static_cast<std::uint32_t>(i / config_.numSms),
                            static_cast<std::uint32_t>(i % config_.numSms)),
            Network::handlerFor<&StreamingMultiprocessor::handleGpuMessage>(
                sms_[i].get()));
    }

    // --- DS-network topology & timestamp stats ------------------------------
    if (config_.dsTopology == DsTopology::kRing) {
        // Ring order: CPU cores, then each GPU's slices in shard order.
        // Distance-proportional extra hops model the scale-out fabric; a
        // crossbar config never calls setRing and keeps historical timing.
        std::vector<NodeId> ring;
        for (std::uint32_t c = 0; c < config_.cpuCores; ++c)
            ring.push_back(homeMap_.cpuCoreNode(c));
        for (std::uint32_t g = 0; g < config_.numGpus; ++g)
            for (std::uint32_t s = 0; s < config_.gpuL2Slices; ++s)
                ring.push_back(homeMap_.sliceNode(g, s));
        dsNet_->setRing(ring);
    }
    if (config_.tsLeaseTicks != 0)
        dsNet_->enableTsStats();

    // --- statistics ----------------------------------------------------------
    dram_->regStats(stats_);
    requestNet_->regStats(stats_);
    forwardNet_->regStats(stats_);
    responseNet_->regStats(stats_);
    dsNet_->regStats(stats_);
    gpuNet_->regStats(stats_);
    for (auto& faultPtr : faults_)
        faultPtr->regStats(stats_);
    for (auto& homePtr : homes_)
        homePtr->regStats(stats_);
    cpuAgent_->regStats(stats_);
    tlb_->regStats(stats_);
    for (auto& corePtr : cpuCores_)
        corePtr->regStats(stats_);
    for (auto& slicePtr : slices_)
        slicePtr->regStats(stats_);
    for (auto& smPtr : sms_)
        smPtr->regStats(stats_);
    for (auto& devPtr : gpuDevices_)
        devPtr->regStats(stats_);
}

System::~System() = default;

Addr System::allocateArray(std::uint64_t bytes, bool gpuShared)
{
    const bool dsMode = config_.mode == CoherenceMode::kDirectStore ||
                        config_.mode == CoherenceMode::kDirectStoreOnly;
    // Hybrid policy (SIII-H): the programmer may keep small shared data on
    // CCSM and push only the large arrays. Under the replacement mode every
    // shared array must be homed on the GPU (there is no CCSM to fall back
    // to), so the threshold is ignored there.
    const bool aboveThreshold =
        config_.mode == CoherenceMode::kDirectStoreOnly ||
        bytes >= config_.dsMinBytes;
    if (dsMode && gpuShared && aboveThreshold)
        return space_->dsMmap(bytes);
    return space_->heapAlloc(bytes);
}

Addr System::allocateArrayHomed(std::uint64_t bytes, std::uint32_t gpu)
{
    const bool dsMode = config_.mode == CoherenceMode::kDirectStore ||
                        config_.mode == CoherenceMode::kDirectStoreOnly;
    // A single shard means every placement is "homed"; the line policy
    // interleaves below any array granularity, so there is nothing to aim
    // for. Both fall back to ordinary placement.
    if (!dsMode || homeMap_.shards() <= 1 ||
        config_.shardPolicy == ShardPolicy::kLine)
        return allocateArray(bytes, /*gpuShared=*/true);
    const std::uint64_t granule =
        config_.shardPolicy == ShardPolicy::kRange
            ? static_cast<std::uint64_t>(HomeMap::kRangePages) * kPageSize
            : kPageSize;
    // Pad the DS cursor page by page until a mapping would start exactly on
    // a granule homed at @p gpu. Bounded: homes rotate every granule, so at
    // most shards * (granule / page) probe pages are burned. Arrays larger
    // than one granule stripe across the shards from there — the homing
    // aims the first (hottest) granule, exactly like the translator does.
    for (;;) {
        const Addr probe = space_->dsMmap(kPageSize);
        const Addr pa = space_->translate(probe).paddr;
        if (pa % granule == 0 && homeMap_.homeOf(pa) == gpu) {
            if (bytes > kPageSize)
                space_->dsMmapFixed(probe + kPageSize, bytes - kPageSize);
            return probe;
        }
    }
}

void System::runCpuProgram(const CpuProgram& program, InlineCallback onDone)
{
    cpuCores_[0]->run(program, std::move(onDone));
}

void System::runCpuProgramOn(std::uint32_t core, const CpuProgram& program,
                             InlineCallback onDone)
{
    cpuCores_.at(core)->run(program, std::move(onDone));
}

void System::launchKernel(const KernelDesc& kernel, InlineCallback onDone)
{
    gpuDevices_.at(kernel.gpu)->launch(kernel, std::move(onDone));
}

Tick System::simulate()
{
    return ctx_.queue.run();
}

RunMetrics System::metrics() const
{
    RunMetrics m;
    m.ticks = ctx_.queue.curTick();
    for (const auto& slicePtr : slices_) {
        m.gpuL2Accesses += slicePtr->demandAccesses();
        m.gpuL2Misses += slicePtr->demandMisses();
        m.gpuL2Compulsory += slicePtr->compulsoryMisses();
        m.dsFills += slicePtr->dsFills();
        m.dsBypasses += slicePtr->dsBypasses();
    }
    m.gpuL2MissRate = m.gpuL2Accesses == 0
                          ? 0.0
                          : static_cast<double>(m.gpuL2Misses) /
                                static_cast<double>(m.gpuL2Accesses);
    m.coherenceMessages = requestNet_->messagesSent() +
                          forwardNet_->messagesSent() +
                          responseNet_->messagesSent();
    m.coherenceBytes = requestNet_->bytesSent() + forwardNet_->bytesSent() +
                       responseNet_->bytesSent();
    m.dsNetworkMessages = dsNet_->messagesSent();
    for (std::uint32_t c = 0; c < config_.memChannels; ++c) {
        const std::string prefix = "dram.ch" + std::to_string(c);
        m.dramReads += stats_.counter(prefix + ".reads");
        m.dramWrites += stats_.counter(prefix + ".writes");
    }
    for (const auto& corePtr : cpuCores_)
        m.checkFailures += corePtr->checkFailures();
    for (const auto& smPtr : sms_)
        m.checkFailures += smPtr->checkFailures();
    return m;
}

std::uint64_t System::configHash() const
{
    return configHashOf(config_);
}

template <class Self, class Ar, class Extra>
void System::snapSections(Self& self, Ar& ar, Extra& extra)
{
    ar.section("queue", self.ctx_.queue);
    ar.section("space", *self.space_);
    ar.section("store", *self.store_);
    ar.section("dram", *self.dram_);
    ar.section("net.request", *self.requestNet_);
    ar.section("net.forward", *self.forwardNet_);
    ar.section("net.response", *self.responseNet_);
    ar.section("net.ds", *self.dsNet_);
    ar.section("net.gpu", *self.gpuNet_);
    // Which injectors exist is a pure function of the config, and the
    // config hash gates restore, so the section list stays in lockstep.
    for (const auto& faultPtr : self.faults_)
        ar.section(faultPtr->name(), *faultPtr);
    for (const auto& homePtr : self.homes_)
        ar.section(homePtr->name(), *homePtr);
    ar.section("cpu.cache", *self.cpuAgent_);
    ar.section("cpu.tlb", *self.tlb_);
    for (const auto& corePtr : self.cpuCores_)
        ar.section(corePtr->name(), *corePtr);
    for (const auto& slicePtr : self.slices_)
        ar.section(slicePtr->name(), *slicePtr);
    for (const auto& smPtr : self.sms_)
        ar.section(smPtr->name(), *smPtr);
    for (const auto& devPtr : self.gpuDevices_)
        ar.section(devPtr->name(), *devPtr);
    ar.section("stats", self.stats_);
    // Observer sections exist only with their observer attached, so
    // snapshots taken without one stay byte-identical to what they always
    // were.
    if (self.ctx_.checker != nullptr)
        ar.section("checker", *self.ctx_.checker);
    if (self.ctx_.txnprof != nullptr)
        ar.section("obs.txnprof", *self.ctx_.txnprof);
    if (self.sampler_ != nullptr)
        ar.section("obs.epochs", *self.sampler_);
    if (extra)
        ar.section("runner", extra);
}

void System::snapshotSave(
    const std::string& path,
    BasicInlineCallback<void(snap::SnapWriter&)> extra) const
{
    snap::SnapWriter w(ctx_.queue.curTick(), configHash());
    snapSections(*this, w, extra);
    w.writeFile(path);
}

void System::snapshotRestore(
    const std::string& path,
    BasicInlineCallback<void(snap::SnapReader&)> extra)
{
    if (ctx_.queue.curTick() != 0)
        throw snap::SnapError(
            "snapshotRestore requires a freshly constructed System "
            "(the event queue already advanced to tick " +
            std::to_string(ctx_.queue.curTick()) + ")");

    snap::SnapReader r(path);
    const std::uint64_t want = configHash();
    if (r.configHash() != want) {
        std::ostringstream os;
        os << path << ": snapshot was taken under a different configuration"
           << std::hex << " (snapshot config hash 0x" << r.configHash()
           << ", this system hashes to 0x" << want
           << ") — restore with the exact config the checkpoint was "
              "written with";
        throw snap::SnapError(os.str());
    }
    if (ctx_.checker != nullptr && !r.hasSection("checker"))
        throw snap::SnapError(
            path + ": a coherence checker is attached but the snapshot "
                   "carries no oracle shadow state; the store mirror would "
                   "be incomplete — snapshot with the checker enabled or "
                   "restore without enableChecker()");
    if (ctx_.txnprof != nullptr && !r.hasSection("obs.txnprof"))
        throw snap::SnapError(
            path + ": a transaction profiler is attached but the snapshot "
                   "carries no profile state; the restored profile would "
                   "miss every pre-checkpoint transaction — snapshot with "
                   "the profiler enabled or restore without "
                   "enableTxnProfiler()");
    if (sampler_ != nullptr && !r.hasSection("obs.epochs"))
        throw snap::SnapError(
            path + ": an epoch sampler is attached but the snapshot "
                   "carries no epoch series; the restored series would "
                   "miss every pre-checkpoint sample — snapshot with the "
                   "sampler enabled or restore without "
                   "enableEpochSampler()");
    if (extra && !r.hasSection("runner"))
        throw snap::SnapError(
            path + ": no runner-progress section (this snapshot was "
                   "not written by the workload runner)");
    snapSections(*this, r, extra);
}

std::string System::describeOutstandingWork() const
{
    std::vector<std::string> items;
    for (const auto& homePtr : homes_) {
        if (const std::size_t busy = homePtr->busyLines(); busy > 0)
            items.push_back(homePtr->name() + ": " + std::to_string(busy) +
                            " busy lines");
    }

    const auto probeAgent = [&items](const CacheAgent& agent,
                                     const std::string& label) {
        if (const std::size_t n = agent.mshrInFlight(); n > 0)
            items.push_back(label + ": " + std::to_string(n) +
                            " MSHR entries in flight");
        if (const std::size_t n = agent.writebackBufferEntries(); n > 0)
            items.push_back(label + ": " + std::to_string(n) +
                            " writebacks draining");
        if (const std::size_t n = agent.blockedRequests(); n > 0)
            items.push_back(label + ": " + std::to_string(n) +
                            " requests blocked on resources");
    };
    probeAgent(*cpuAgent_, "cpu.cache");
    for (const auto& slicePtr : slices_)
        probeAgent(*slicePtr, slicePtr->name());

    for (const auto& corePtr : cpuCores_) {
        if (std::string core = corePtr->outstandingWork(); !core.empty())
            items.push_back(corePtr->name() + ": " + core);
    }

    std::string out;
    for (const std::string& item : items) {
        if (!out.empty())
            out += "; ";
        out += item;
    }
    return out;
}

std::vector<std::string> System::checkCoherenceInvariants() const
{
    std::vector<std::string> violations;
    for (const auto& homePtr : homes_) {
        if (!homePtr->quiescent())
            violations.push_back(homePtr->name() +
                                 " controller not quiescent");
    }

    // Every valid line of every coherent agent (0 is the CPU, i + 1 is
    // slice i), sorted by address and then agent, the CPU-then-slice order
    // the reports list a line's copies in. (An agent holds a line once.)
    struct Copy {
        Addr base;
        std::size_t agent;
        CohState state;
        const DataBlock* data;
    };
    std::vector<Copy> copies;
    const auto collect = [&copies](const CacheAgent& agent, std::size_t i) {
        agent.forEachLine([&copies, i](const CacheAgent::Line& line) {
            copies.push_back(Copy{line.base, i, line.meta.state, &line.data});
        });
    };
    collect(*cpuAgent_, 0);
    for (std::size_t i = 0; i < slices_.size(); ++i)
        collect(*slices_[i], i + 1);
    std::sort(copies.begin(), copies.end(), [](const Copy& a, const Copy& b) {
        return a.base != b.base ? a.base < b.base : a.agent < b.agent;
    });

    for (auto first = copies.begin(); first != copies.end();) {
        const Addr addr = first->base;
        const auto last =
            std::find_if(first, copies.end(),
                         [addr](const Copy& c) { return c.base != addr; });
        const auto report = [&violations, addr](const std::string& what) {
            std::ostringstream line;
            line << "line 0x" << std::hex << addr << what;
            violations.push_back(line.str());
        };
        int owners = 0;
        int exclusives = 0;
        bool anyTransient = false;
        for (auto c = first; c != last; ++c) {
            if (!isStable(c->state))
                anyTransient = true;
            if (isOwner(c->state))
                ++owners;
            if (c->state == CohState::kMM || c->state == CohState::kM)
                ++exclusives;
        }
        if (anyTransient) {
            report(" still transient in a quiesced system");
        } else {
            if (owners > 1)
                report(" has multiple owners");
            if (exclusives > 0 && last - first > 1)
                report(" exclusive with other copies present");
            if (owners == 0) {
                // No owner: every shared copy must match memory.
                const DataBlock& mem = store_->readLine(addr);
                for (auto c = first; c != last; ++c) {
                    if (*c->data == mem)
                        continue;
                    const std::string agent =
                        c->agent == 0 ? "cpu" : sliceCheckerLabel(c->agent - 1);
                    report(" at " + agent +
                           " diverges from memory with no owner");
                }
            }
        }
        first = last;
    }
    return violations;
}

} // namespace dscoh
