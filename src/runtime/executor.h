/**
 * @file
 * The one-shot entry point of the threaded runtime: run one workload to
 * completion over any Scheduler on real host threads.
 *
 * run() is the smallest case of the long-lived ExecutorService
 * (runtime/executor_service.h): it builds a service on the caller's
 * scheduler, submits the workload as one job, shuts the service down
 * (which runs the job to its end) and reports the job. The worker loop, the distributed
 * termination detection (DESIGN.md §11), the per-worker breakdown, the
 * Eq. 1 drift sampling, the progress watchdog and the failure latch
 * are therefore the service's, and this header only declares the
 * options both share (ServiceOptions derives from RunOptions) and the
 * result a one-shot caller reads.
 */

#ifndef HDCPS_RUNTIME_EXECUTOR_H_
#define HDCPS_RUNTIME_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "cps/scheduler.h"
#include "obs/metrics.h"
#include "stats/breakdown.h"

namespace hdcps {

/**
 * Task-processing callback: consume `task`, append created children to
 * `children` (pre-cleared). Must be thread-safe across distinct calls.
 */
using ProcessFn =
    std::function<void(unsigned tid, const Task &task,
                       std::vector<Task> &children)>;

/** Options of the threaded runtime, shared by run() and the
 *  ExecutorService (ServiceOptions derives from this). */
struct RunOptions
{
    unsigned numThreads = 1;
    /** Worker 0's pops between Eq. 1 drift samples of its current job
     *  (and between the metrics series samples below). */
    unsigned driftSampleInterval = 2000;
    /** Per-task enqueue/dequeue/compute/comm timing into each job's
     *  per-worker Breakdown. Off by default: it reads the clock four
     *  times per task. Task counts are kept either way. */
    bool recordBreakdown = false;
    /**
     * Progress watchdog window in milliseconds; 0 disables it. The
     * service's deadline monitor checks it every millisecond: when
     * live jobs have tasks in flight but no worker popped anything for
     * a full window, every live job is failed with a diagnostic dump
     * (scheduler occupancy, per-worker pop counts and last-pop ages,
     * metrics totals) instead of hanging.
     */
    uint64_t watchdogMs = 0;
    /**
     * Straggler-reclamation window in milliseconds; 0 disables it.
     * Forwarded to Scheduler::setReclaimAfterMs before workers start
     * (always — this value is authoritative), so designs with
     * per-worker buffers let idle peers drain a worker whose heartbeat
     * has been stale for longer than this window. Designs without such
     * buffers ignore the knob.
     */
    uint64_t reclaimAfterMs = 0;
    /**
     * Optional observability sink, attached to the scheduler. Workers
     * add their task totals to their own slots and, on the drift
     * sampling cadence, record the Eq. 1 drift signal and the pending
     * task gauge (worker 0) and their cumulative per-phase breakdown
     * (with recordBreakdown). The registry must have at least
     * numThreads workers and outlive the run or service.
     */
    MetricsRegistry *metrics = nullptr;
};

/** Everything a figure harness needs from one execution. */
struct RunResult
{
    Breakdown total;                   ///< merged over all workers
    std::vector<Breakdown> perWorker;
    uint64_t wallNs = 0;               ///< completion time
    double avgDrift = 0.0;             ///< mean of Eq. 1 samples
    double maxDrift = 0.0;
    uint64_t driftSamples = 0;
    /**
     * Failure verdict. When a ProcessFn throws or the watchdog detects
     * a stall, the run's remaining tasks are discarded: failed flips
     * true, error holds the *first* failure's message, and the counters
     * reflect only the work done before it. After a watchdog stall
     * tasks may be left in the scheduler — callers must not trust
     * partial results.
     */
    bool failed = false;
    std::string error;

    bool ok() const { return !failed; }
};

/**
 * Run `process` over `initial` and everything it spawns, scheduling
 * through `sched`, as one job of a single-use ExecutorService. Blocks
 * until the job is terminal and every worker is joined. Never
 * terminates the process on a ProcessFn exception — inspect
 * RunResult::ok() / error instead.
 */
RunResult run(Scheduler &sched, const std::vector<Task> &initial,
              const ProcessFn &process, const RunOptions &options);

} // namespace hdcps

#endif // HDCPS_RUNTIME_EXECUTOR_H_
