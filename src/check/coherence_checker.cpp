#include "check/coherence_checker.h"

#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "mem/backing_store.h"

namespace dscoh {

namespace {

std::string hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

/// May this state's copy coexist with an exclusive (MM/M) copy elsewhere?
/// IS_D/IM_D hold no data yet; II_A already supplied its data to the new
/// owner (so its stale buffer is dead weight, not a protocol copy).
bool conflictsWithExclusive(CohState s)
{
    switch (s) {
    case CohState::kS:
    case CohState::kO:
    case CohState::kM:
    case CohState::kMM:
    case CohState::kSM_D:
    case CohState::kMI_A:
    case CohState::kOI_A:
        return true;
    default:
        return false;
    }
}

/// Does this state's copy carry protocol-valid (readable or
/// writeback-pending) data that must agree with the ground truth?
bool holdsValidData(CohState s)
{
    return canRead(s) || s == CohState::kMI_A || s == CohState::kOI_A;
}

/// Is this agent the line's current owner for value purposes (the copy
/// memory will eventually reflect)?
bool ownsValue(CohState s)
{
    return isOwner(s) || s == CohState::kMI_A || s == CohState::kOI_A;
}

} // namespace

void CoherenceChecker::addAgent(AgentView view)
{
    agents_.push_back(std::move(view));
}

void CoherenceChecker::setHomeProbe(std::function<std::size_t()> busyLines)
{
    homeBusyLines_ = std::move(busyLines);
}

void CoherenceChecker::setBackingStore(const BackingStore* store)
{
    store_ = store;
}

void CoherenceChecker::record(const char* category, const std::string& what,
                              Tick now)
{
    if (violations_.size() >= kMaxViolations) {
        ++suppressed_;
        return;
    }
    std::string v;
    v.reserve(what.size() + 32);
    v += '[';
    v += category;
    v += "] tick ";
    v += std::to_string(now);
    v += ": ";
    v += what;
    violations_.push_back(std::move(v));
}

void CoherenceChecker::onTransition(Addr base, CohEvent event, Tick now)
{
    ++transitions_;
    ++activity_;
    // Transitions that end in I or a dataless transient cannot create a new
    // violation on their own, but the cheap full-line re-check keeps the
    // reporting immediate, so run it unconditionally.
    checkLine(base, to_string(event), now);
}

void CoherenceChecker::onMshrAllocate(const std::string& agent, Addr base,
                                      Tick now)
{
    ++activity_;
    auto& live = mshrLive_[agent];
    if (!live.insert(lineAlign(base)).second)
        record("mshr", agent + " double-allocated an MSHR for line " +
                           hexAddr(lineAlign(base)),
               now);
}

void CoherenceChecker::onMshrRelease(const std::string& agent, Addr base,
                                     Tick now)
{
    ++activity_;
    auto& live = mshrLive_[agent];
    if (live.erase(lineAlign(base)) == 0)
        record("mshr", agent + " released an MSHR it never allocated for line " +
                           hexAddr(lineAlign(base)),
               now);
}

void CoherenceChecker::onStoreApplied(Addr base, const DataBlock& data,
                                      const ByteMask& mask)
{
    ++activity_;
    ++storesMirrored_;
    MirrorLine& line = mirror_[lineAlign(base)];
    mask.apply(line.data, data);
    line.valid.merge(mask);
}

void CoherenceChecker::onLeaseGrant(const std::string& agent, Addr base,
                                    Tick expiry, Tick now)
{
    ++activity_;
    if (expiry <= now)
        record("lease", agent + " granted an already-expired lease on line " +
                            hexAddr(base) + " (expiry tick " +
                            std::to_string(expiry) + ")",
               now);
    for (const AgentView& v : agents_) {
        if (v.name != agent)
            continue;
        const CohState s = v.stateOf(base);
        if (!isOwner(s))
            record("lease", agent + " granted a lease on line " +
                                hexAddr(base) + " it does not own (state " +
                                to_string(s) + ")",
                   now);
        break;
    }
}

void CoherenceChecker::onLeaseServe(const std::string& agent, Addr base,
                                    const DataBlock& data, Tick expiry,
                                    Tick now)
{
    ++activity_;
    if (now >= expiry) {
        record("lease", agent + " served line " + hexAddr(base) +
                            " from a lease that expired at tick " +
                            std::to_string(expiry),
               now);
        return;
    }
    const auto it = mirror_.find(lineAlign(base));
    if (it == mirror_.end())
        return;
    for (std::uint32_t i = 0; i < kLineSize; ++i) {
        if (!it->second.valid.test(i))
            continue;
        if (data.read(i, 1) != it->second.data.read(i, 1)) {
            record("lease",
                   agent + " served stale leased data for line " +
                       hexAddr(base) + ": byte " + std::to_string(i) +
                       " is " + std::to_string(data.read(i, 1)) +
                       ", ground truth " +
                       std::to_string(it->second.data.read(i, 1)) +
                       " (lease expiry tick " + std::to_string(expiry) + ")",
                   now);
            break;
        }
    }
}

void CoherenceChecker::reportExternal(const std::string& agent,
                                      const std::string& what, Tick now)
{
    ++activity_;
    record("shard", agent + ": " + what, now);
}

void CoherenceChecker::checkLine(Addr base, const char* when, Tick now)
{
    struct Copy {
        const AgentView* view;
        CohState state;
        const DataBlock* data;
    };
    std::vector<Copy> copies;
    copies.reserve(agents_.size());
    int owners = 0;
    int exclusives = 0;
    for (const AgentView& v : agents_) {
        const CohState s = v.stateOf(base);
        if (s == CohState::kI)
            continue;
        copies.push_back(Copy{&v, s, v.dataOf(base)});
        if (ownsValue(s))
            ++owners;
        if (s == CohState::kM || s == CohState::kMM)
            ++exclusives;
    }
    if (copies.empty())
        return;

    const auto roster = [&copies]() {
        std::string r;
        for (const Copy& c : copies) {
            if (!r.empty())
                r += ", ";
            r += c.view->name + ":" + to_string(c.state);
        }
        return r;
    };

    if (owners > 1)
        record("single-writer", "line " + hexAddr(base) + " has " +
                                    std::to_string(owners) + " owners (" +
                                    roster() + ") after " + when,
               now);
    if (exclusives > 0 && copies.size() > 1) {
        for (const Copy& c : copies) {
            if (c.state != CohState::kM && c.state != CohState::kMM &&
                conflictsWithExclusive(c.state)) {
                record("single-writer",
                       "line " + hexAddr(base) +
                           " exclusive elsewhere but also held as " +
                           std::string(to_string(c.state)) + " at " +
                           c.view->name + " (" + roster() + ") after " + when,
                       now);
                break;
            }
        }
    }

    const auto it = mirror_.find(base);
    if (it == mirror_.end())
        return;
    const MirrorLine& truth = it->second;
    for (const Copy& c : copies) {
        if (!holdsValidData(c.state) || c.data == nullptr)
            continue;
        for (std::uint32_t i = 0; i < kLineSize; ++i) {
            if (!truth.valid.test(i))
                continue;
            if (c.data->read(i, 1) != truth.data.read(i, 1)) {
                record("data-value",
                       "line " + hexAddr(base) + " at " + c.view->name + " (" +
                           to_string(c.state) + ") byte " + std::to_string(i) +
                           " is " + std::to_string(c.data->read(i, 1)) +
                           ", ground truth " +
                           std::to_string(truth.data.read(i, 1)) + " after " +
                           when,
                       now);
                break;
            }
        }
    }
}

bool CoherenceChecker::outstandingWork(std::string* detail) const
{
    bool any = false;
    std::ostringstream os;
    for (const AgentView& v : agents_) {
        const std::size_t mshrs = v.mshrInFlight();
        const std::size_t wbs = v.writebackEntries();
        const std::size_t blocked = v.blockedThunks();
        if (mshrs + wbs + blocked == 0)
            continue;
        any = true;
        os << ' ' << v.name << "{mshr=" << mshrs << ",wb=" << wbs
           << ",blocked=" << blocked << "}";
    }
    if (homeBusyLines_) {
        if (const std::size_t busy = homeBusyLines_()) {
            any = true;
            os << " home{busy=" << busy << "}";
        }
    }
    if (inFlight_ > 0) {
        any = true;
        os << " net{inflight=" << inFlight_ << "}";
    }
    if (detail != nullptr)
        *detail = os.str();
    return any;
}

bool CoherenceChecker::checkProgress(Tick now)
{
    std::string detail;
    const bool outstanding = outstandingWork(&detail);
    const bool stalled =
        progressArmed_ && outstanding && activity_ == lastActivity_;
    if (stalled)
        record("deadlock",
               "no protocol activity across a whole event-queue slice while "
               "work is outstanding:" +
                   detail,
               now);
    lastActivity_ = activity_;
    progressArmed_ = true;
    return !stalled;
}

const DataBlock* CoherenceChecker::globalLineValue(Addr base,
                                                   std::string* source) const
{
    for (const AgentView& v : agents_) {
        const CohState s = v.stateOf(base);
        if (!ownsValue(s))
            continue;
        if (const DataBlock* d = v.dataOf(base)) {
            if (source != nullptr)
                *source = v.name + ":" + to_string(s);
            return d;
        }
    }
    if (store_ == nullptr)
        return nullptr;
    if (source != nullptr)
        *source = "memory";
    return &store_->readLine(base);
}

void CoherenceChecker::finalize(Tick now)
{
    // 1. Stuck resources: a drained queue with any of these alive means the
    //    protocol (or the program driving it) wedged.
    std::string detail;
    if (outstandingWork(&detail))
        record("stuck", "resources still busy after the queue drained:" + detail,
               now);
    for (const auto& [agent, live] : mshrLive_) {
        if (live.empty())
            continue;
        std::string lines;
        for (const Addr a : live) {
            if (!lines.empty())
                lines += ", ";
            lines += hexAddr(a);
        }
        record("mshr-leak", agent + " never released MSHRs for: " + lines, now);
    }

    // 2. Full sweep: every line any agent still holds must satisfy the
    //    protocol invariants, and no transient state may survive quiesce.
    std::set<Addr> bases;
    for (const AgentView& v : agents_) {
        v.forEachLine([&bases, &v, &now, this](Addr base, CohState s,
                                               const DataBlock&) {
            bases.insert(base);
            if (!isStable(s))
                record("stuck",
                       "line " + hexAddr(base) + " still " + to_string(s) +
                           " at " + v.name + " in a quiesced system",
                       now);
        });
    }
    for (const Addr base : bases)
        checkLine(base, "finalize", now);

    // 3. Ground truth: every byte ever stored through a coherent agent must
    //    be what the line's owner (or memory, when unowned) now holds.
    for (const auto& [base, truth] : mirror_) {
        std::string source;
        const DataBlock* value = globalLineValue(base, &source);
        if (value == nullptr)
            continue;
        for (std::uint32_t i = 0; i < kLineSize; ++i) {
            if (!truth.valid.test(i))
                continue;
            if (value->read(i, 1) != truth.data.read(i, 1)) {
                record("data-value",
                       "line " + hexAddr(base) + " final value (" + source +
                           ") byte " + std::to_string(i) + " is " +
                           std::to_string(value->read(i, 1)) +
                           ", ground truth " +
                           std::to_string(truth.data.read(i, 1)),
                       now);
                break;
            }
        }
    }
}

void CoherenceChecker::dump(std::ostream& os) const
{
    os << "CoherenceChecker: " << transitions_ << " transitions checked, "
       << storesMirrored_ << " stores mirrored, " << mirror_.size()
       << " lines tracked, " << violations_.size() << " violations";
    if (suppressed_ > 0)
        os << " (+" << suppressed_ << " suppressed)";
    os << "\n";
    for (const std::string& v : violations_)
        os << "  " << v << "\n";
}

} // namespace dscoh
