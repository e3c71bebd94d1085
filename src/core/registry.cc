#include "core/registry.h"

#include "cps/multiqueue.h"
#include "cps/obim.h"
#include "cps/pmod.h"
#include "cps/reld.h"
#include "cps/swminnow.h"

namespace hdcps {

namespace {

using SchedulerPtr = std::unique_ptr<Scheduler>;

template <typename HdCps, HdCpsConfig (*Preset)()>
SchedulerPtr
makeHdCps(unsigned workers, const SchedulerParams &p)
{
    HdCpsConfig config = Preset();
    config.seed = p.seed;
    config.topology = p.topology;
    config.sampleInterval = p.sampleInterval;
    return std::make_unique<HdCps>(workers, config);
}

template <typename Design>
SchedulerPtr
makeUnseeded(unsigned workers, const SchedulerParams &)
{
    return std::make_unique<Design>(workers);
}

struct Entry
{
    const char *name;
    SchedulerPtr (*make)(unsigned workers, const SchedulerParams &p);
};

const Entry kDesigns[] = {
    {"hdcps-sw", makeHdCps<HdCpsScheduler, HdCpsScheduler::configSw>},
    {"hdcps-srq", makeHdCps<HdCpsScheduler, HdCpsScheduler::configSrq>},
    // HD-CPS:SW mechanisms over the relaxed MultiQueue local PQ.
    {"hdcps-mq", makeHdCps<HdCpsMqScheduler, HdCpsMqScheduler::configSw>},
    {"reld",
     [](unsigned n, const SchedulerParams &p) -> SchedulerPtr {
         return std::make_unique<ReldScheduler>(n, p.seed);
     }},
    {"multiqueue",
     [](unsigned n, const SchedulerParams &p) -> SchedulerPtr {
         return std::make_unique<MultiQueueScheduler>(n, 2, p.seed);
     }},
    {"obim", makeUnseeded<ObimScheduler>},
    {"pmod", makeUnseeded<PmodScheduler>},
    {"swminnow", makeUnseeded<SwMinnowScheduler>},
};

} // namespace

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name, unsigned workers,
              const SchedulerParams &params)
{
    for (const Entry &d : kDesigns) {
        if (name == d.name)
            return d.make(workers, params);
    }
    return nullptr;
}

std::vector<std::string>
schedulerNames()
{
    std::vector<std::string> names;
    for (const Entry &d : kDesigns)
        names.emplace_back(d.name);
    return names;
}

} // namespace hdcps
