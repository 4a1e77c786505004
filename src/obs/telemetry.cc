#include "obs/telemetry.hh"

#include <cstdio>

#include "common/log.hh"
#include "core/core.hh"

namespace sdv {
namespace obs {

IntervalTelemetry::IntervalTelemetry(Cycle interval)
    : interval_(interval), next_(interval)
{
    sdv_assert(interval > 0, "telemetry interval must be positive");
}

void
IntervalTelemetry::rebase(Core &core, Cycle now)
{
    prevCycle_ = now;
    prevCore_ = core.stats();
    prevValFallbacks_ = core.engine().stats().lateValidationFallbacks;
}

void
IntervalTelemetry::begin(Core &core)
{
    rebase(core, core.cycle());
    next_ = (prevCycle_ / interval_ + 1) * interval_;
    samples_.clear();
}

void
IntervalTelemetry::capture(Core &core, Cycle now)
{
    const CoreStats &cs = core.stats();
    const VecRegFile &vrf = core.engine().vrf();
    TelemetrySample s;
    s.startCycle = prevCycle_;
    s.endCycle = now;
    s.insts = cs.committedInsts - prevCore_.committedInsts;
    s.fetchStallCycles = cs.fetchStallCycles - prevCore_.fetchStallCycles;
    s.fetchStallValWaitCycles =
        cs.fetchStallValWaitCycles - prevCore_.fetchStallValWaitCycles;
    s.validations = cs.committedValidations - prevCore_.committedValidations;
    s.valFallbacks = core.engine().stats().lateValidationFallbacks -
                     prevValFallbacks_;
    s.liveVregs = vrf.numRegs() - vrf.numFree();
    samples_.push_back(s);
    rebase(core, now);
}

void
IntervalTelemetry::sample(Core &core)
{
    const Cycle now = core.cycle();
    capture(core, now);
    // One sample spans an event-skip jump across several boundaries;
    // re-arm on the interval grid so later samples stay aligned.
    next_ = (now / interval_ + 1) * interval_;
}

void
IntervalTelemetry::finish(Core &core)
{
    if (core.cycle() > prevCycle_)
        capture(core, core.cycle());
}

std::string
IntervalTelemetry::toJson() const
{
    std::string out = "[";
    char buf[384];
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const TelemetrySample &s = samples_[i];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"start_cycle\":%llu,\"end_cycle\":%llu,\"cycles\":%llu,"
            "\"insts\":%llu,\"ipc\":%.6f,\"fetch_stall_cycles\":%llu,"
            "\"fetch_stall_val_wait_cycles\":%llu,\"validations\":%llu,"
            "\"val_fallbacks\":%llu,\"live_vregs\":%u}",
            i ? "," : "", static_cast<unsigned long long>(s.startCycle),
            static_cast<unsigned long long>(s.endCycle),
            static_cast<unsigned long long>(s.cycles()),
            static_cast<unsigned long long>(s.insts), s.ipc(),
            static_cast<unsigned long long>(s.fetchStallCycles),
            static_cast<unsigned long long>(s.fetchStallValWaitCycles),
            static_cast<unsigned long long>(s.validations),
            static_cast<unsigned long long>(s.valFallbacks), s.liveVregs);
        out += buf;
    }
    out += "\n]";
    return out;
}

} // namespace obs
} // namespace sdv
