/**
 * @file
 * The threaded-design registry: one ordered table that names and
 * builds every host Scheduler design. It lives in core, not cps,
 * because it must see the HD-CPS designs (core links cps, never the
 * reverse). Simulator designs are a separate family (simsched).
 */

#ifndef HDCPS_CORE_REGISTRY_H_
#define HDCPS_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hdcps.h"

namespace hdcps {

/** The construction values callers vary. Only reld, multiqueue and the
 *  hdcps-* designs take the seed; only hdcps-* take the rest. */
struct SchedulerParams
{
    uint64_t seed = 1;
    Topology topology{}; ///< flat by default
    unsigned sampleInterval = HdCpsConfig{}.sampleInterval;
};

/** Build design `name` for `workers` workers; null for an unknown
 *  name. */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name,
                                         unsigned workers,
                                         const SchedulerParams &params = {});

/** Every design name, in table order. Soak's pinned-seed sweeps draw
 *  designs by index into this list: append, never reorder. */
std::vector<std::string> schedulerNames();

} // namespace hdcps

#endif // HDCPS_CORE_REGISTRY_H_
