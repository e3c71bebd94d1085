#include "runtime/executor_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "core/drift.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/straggler.h"
#include "support/timer.h"

namespace hdcps {

namespace detail {

/**
 * Everything the service tracks for one job. Shared between the
 * service (jobs table, admission queue) and the caller's JobHandle;
 * the record outlives the service entry so handles stay valid after
 * the job finishes.
 */
struct JobRecord
{
    JobRecord(unsigned numSlots, ExecutorService *owner)
        : term(numSlots), tallies(numSlots), drift(numSlots), svc(owner)
    {}

    JobId id = 0;
    std::string name;
    ProcessFn process;
    RetryPolicy retry;
    Priority priority = 0;
    TenantId tenant = 0;
    /** Effective fair-share weight (JobSpec::weight, or the tenant
     *  quota default). Written once at submit under admitMutex_. */
    double weight = 1.0;
    /** SFQ service demand: max(1, seed count). */
    double cost = 1.0;
    Priority demotePenalty = 0;
    uint64_t submitNs = 0;
    uint64_t deadlineNs = 0; ///< absolute; 0 = no deadline
    uint64_t demoteAfterNs = 0; ///< absolute; 0 = no auto-demotion
    std::vector<Task> initial;

    /**
     * Preemption level: popped incarnations whose demote stamp lags
     * this are re-tagged (priority += levels * demotePenalty) and
     * re-pushed instead of processed. Bumped by deprioritize() and the
     * deadline monitor's demoteAfterMs path; never decremented.
     */
    std::atomic<uint32_t> demoteLevel{0};
    std::atomic<RejectReason> rejectReason{RejectReason::None};

    std::atomic<JobState> state{JobState::Queued};
    /**
     * Pending terminal verdict for failure paths. Completed doubles
     * as the "no failure claimed" sentinel; the first terminateJob
     * CAS wins and its Failed/Cancelled value is what the finishing
     * worker publishes. Stored before the latch raises stop, so any
     * worker that observes stopRequested also observes the verdict
     * (release/acquire through the stop flag).
     */
    std::atomic<JobState> verdict{JobState::Completed};

    /** Per-job conservation ledger + quiescence scan. */
    TerminationCounters term;

    /** One worker's share of the job for JobHandle::report(): added
     *  by the worker when it leaves the job, runs dry or exits. */
    struct Tally
    {
        std::atomic<uint64_t> time[numComponents];
        std::atomic<uint64_t> tasksProcessed;
        std::atomic<uint64_t> emptyTasks;
    };
    std::vector<Padded<Tally>> tallies;
    /** Design-independent Eq. 1 drift over this job's tasks: every
     *  worker publishes each processed priority, worker 0 samples. */
    DriftTracker drift;
    mutable std::mutex driftMutex; ///< guards driftSeries
    DriftSeries driftSeries;
    /** Per-job drain latch: stopRequested() is the worker-visible
     *  "discard this job's tasks" signal. */
    FailureLatch latch;

    std::atomic<double> latencyMs{0.0};
    std::mutex waitMutex;
    std::condition_variable waitCv;

    /** Poison-task quarantine: tasks that exhausted their retries
     *  under RetryPolicy::deadLetterOnExhaustion, in quarantine
     *  order. */
    mutable std::mutex poisonMutex;
    std::vector<Task> deadLetters;
    std::atomic<uint64_t> poisoned{0};

    ExecutorService *svc; ///< valid until the job is terminal
    /** Owning tenant's fair-queueing state (stable address; set at
     *  submit under admitMutex_, before any task of the job exists). */
    ExecutorService::TenantState *tenantState = nullptr;
};

} // namespace detail

using detail::JobRecord;

/**
 * One worker thread's private loop state. Nothing here is shared: the
 * counts reach the job (and the tenant, and the metrics slot) in
 * batches, when the worker switches jobs, runs dry or exits.
 */
struct ExecutorService::Worker
{
    explicit Worker(unsigned slot) : tid(slot) { children.reserve(64); }

    /** Add the counts and timing gathered since the last report to
     *  the current job's tally for this slot (and its metrics slot). */
    void
    reportTallies(MetricsRegistry *metrics)
    {
        JobRecord::Tally &tally = job->tallies[tid].value;
        auto add = [](std::atomic<uint64_t> &to, uint64_t n) {
            if (n != 0)
                to.fetch_add(n, std::memory_order_relaxed);
        };
        for (unsigned c = 0; c < numComponents; ++c)
            add(tally.time[c], seen.time[c] - reported.time[c]);
        uint64_t tasks = seen.tasksProcessed - reported.tasksProcessed;
        uint64_t empty = seen.emptyTasks - reported.emptyTasks;
        add(tally.tasksProcessed, tasks);
        add(tally.emptyTasks, empty);
        if (metrics && tasks != 0) {
            metrics->add(tid, WorkerCounter::TasksProcessed, tasks);
            metrics->add(tid, WorkerCounter::EmptyTasks, empty);
        }
        reported = seen;
    }

    /** Add the batched per-tenant task count to the tenant. */
    void
    flushTenant()
    {
        if (tenantTasks == 0)
            return;
        tenant->tasksProcessed.fetch_add(tenantTasks,
                                         std::memory_order_relaxed);
        tenantTasks = 0;
    }

    const unsigned tid;
    RecordPtr job; ///< job of the last popped task
    /** Completed a task of `job` since this worker last checked the
     *  job for completion. */
    bool unchecked = false;
    TenantState *tenant = nullptr; ///< owner of tenantTasks
    uint64_t tenantTasks = 0;
    Breakdown seen;     ///< this thread's cumulative counts and timing
    Breakdown reported; ///< the part of `seen` already in a tally
    uint64_t popsSinceSample = 0;
    std::vector<Task> children;
};

const char *
jobStateName(JobState s)
{
    static const char *const names[] = {
        "queued",    "running",   "draining", "completed",
        "failed",    "cancelled", "rejected",
    };
    return names[unsigned(s)];
}

const char *
rejectReasonName(RejectReason r)
{
    static const char *const names[] = {
        "none",          "invalid_spec",        "queue_full",
        "tenant_queue_full", "tenant_rate_limited", "shutting_down",
        "escalated",
    };
    return names[unsigned(r)];
}

// --- JobHandle ---------------------------------------------------------

JobRecord &
JobHandle::rec() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return *record_;
}

JobId
JobHandle::id() const
{
    return rec().id;
}

const std::string &
JobHandle::name() const
{
    return rec().name;
}

JobState
JobHandle::state() const
{
    return rec().state.load(std::memory_order_acquire);
}

std::string
JobHandle::error() const
{
    JobState s = state();
    if (s != JobState::Failed && s != JobState::Cancelled &&
        s != JobState::Rejected)
        return std::string();
    return record_->latch.failed() ? record_->latch.error()
                                   : std::string();
}

bool
JobHandle::cancel()
{
    if (done())
        return false;
    // Non-terminal implies the service is still alive (shutdown only
    // returns once every admitted job is terminal), so svc is valid.
    return record_->svc->terminateJob(record_, JobState::Cancelled,
                                      "job '" + record_->name +
                                          "' cancelled",
                                      /*widenCancelRace=*/true);
}

JobState
JobHandle::wait()
{
    JobRecord &r = rec();
    std::unique_lock<std::mutex> lock(r.waitMutex);
    r.waitCv.wait(lock, [&r] {
        return jobStateTerminal(r.state.load(std::memory_order_acquire));
    });
    return r.state.load(std::memory_order_acquire);
}

bool
JobHandle::waitFor(uint64_t ms, JobState *out)
{
    JobRecord &r = rec();
    std::unique_lock<std::mutex> lock(r.waitMutex);
    bool done = r.waitCv.wait_for(
        lock, std::chrono::milliseconds(ms), [&r] {
            return jobStateTerminal(
                r.state.load(std::memory_order_acquire));
        });
    if (done && out)
        *out = r.state.load(std::memory_order_acquire);
    return done;
}

RejectReason
JobHandle::rejectReason() const
{
    return rec().rejectReason.load(std::memory_order_acquire);
}

TenantId
JobHandle::tenant() const
{
    return rec().tenant;
}

bool
JobHandle::deprioritize()
{
    if (done())
        return false;
    uint32_t level =
        record_->demoteLevel.load(std::memory_order_acquire);
    while (level < kMaxDemoteLevel) {
        if (record_->demoteLevel.compare_exchange_weak(
                level, level + 1, std::memory_order_acq_rel)) {
            return true;
        }
    }
    return false; // already at the cap
}

uint32_t
JobHandle::demoteLevel() const
{
    return rec().demoteLevel.load(std::memory_order_acquire);
}

double
JobHandle::latencyMs() const
{
    return rec().latencyMs.load(std::memory_order_acquire);
}

uint64_t
JobHandle::tasksCompleted() const
{
    return rec().term.completedTotal();
}

uint64_t
JobHandle::poisonedTasks() const
{
    return rec().poisoned.load(std::memory_order_acquire);
}

std::vector<Task>
JobHandle::deadLetters() const
{
    std::lock_guard<std::mutex> lock(rec().poisonMutex);
    return record_->deadLetters;
}

RunResult
JobHandle::report() const
{
    const JobRecord &r = rec();
    RunResult out;
    out.perWorker.resize(r.tallies.size());
    for (size_t tid = 0; tid < r.tallies.size(); ++tid) {
        const JobRecord::Tally &tally = r.tallies[tid].value;
        Breakdown &b = out.perWorker[tid];
        for (unsigned c = 0; c < numComponents; ++c)
            b.time[c] = tally.time[c].load(std::memory_order_relaxed);
        b.tasksProcessed =
            tally.tasksProcessed.load(std::memory_order_relaxed);
        b.emptyTasks = tally.emptyTasks.load(std::memory_order_relaxed);
        out.total += b;
    }
    {
        std::lock_guard<std::mutex> lock(r.driftMutex);
        out.avgDrift = r.driftSeries.average();
        out.maxDrift = r.driftSeries.maxSample();
        out.driftSamples = r.driftSeries.samples();
    }
    out.wallNs = uint64_t(latencyMs() * 1e6);
    out.error = error(); // non-empty exactly for failed verdicts
    out.failed = !out.error.empty();
    return out;
}

// --- ExecutorService ---------------------------------------------------

ExecutorService::ExecutorService(Scheduler &sched,
                                 const ServiceOptions &options)
    : sched_(sched), options_(options)
{
    hdcps_check(options.numThreads >= 1, "need at least one thread");
    hdcps_check(options.numThreads == sched.numWorkers(),
                "thread count (%u) != scheduler workers (%u)",
                options.numThreads, sched.numWorkers());
    hdcps_check(options.admissionCapacity >= 1,
                "admission capacity must be >= 1");
    hdcps_check(options.driftSampleInterval >= 1,
                "drift sample interval must be >= 1");
    if (options.metrics) {
        hdcps_check(options.metrics->numWorkers() >= options.numThreads,
                    "metrics registry has %u workers, need %u",
                    options.metrics->numWorkers(), options.numThreads);
        sched.attachMetrics(options.metrics);
    }
    // Unconditional: the options are authoritative, so a scheduler
    // reused across services cannot carry a stale window into one that
    // wants the default (off).
    sched.setReclaimAfterMs(options.reclaimAfterMs);

    pops_ = std::vector<Padded<std::atomic<uint64_t>>>(options.numThreads);
    lastPopNs_ =
        std::vector<Padded<std::atomic<uint64_t>>>(options.numThreads);

    // Materialize configured tenants up front so quotas and weights
    // apply from the very first submit; tenants first seen at submit
    // time get defaults (weight 1, no limits).
    uint64_t bucketEpoch = nowNs();
    for (const auto &[id, quota] : options_.tenants) {
        hdcps_check(quota.weight > 0.0,
                    "tenant %u: weight must be > 0", id);
        auto state = std::make_unique<TenantState>();
        state->id = id;
        state->quota = quota;
        state->bucket.configure(quota.admitRatePerSec,
                                quota.admitBurst, bucketEpoch);
        tenants_.emplace(id, std::move(state));
    }

    if (options_.supervisor.enabled) {
        supervisor_ = std::make_unique<WorkerSupervisor>(
            options_.numThreads, options_.supervisor);
    }
}

void
ExecutorService::startPool()
{
    const uint64_t now = nowNs();
    // Arm every slot's heartbeat before the threads exist so a slow
    // spawn can't read as a wedge; pop ages count from here.
    for (unsigned tid = 0; tid < options_.numThreads; ++tid) {
        if (supervisor_)
            supervisor_->beat(tid, now);
        lastPopNs_[tid].value.store(now, std::memory_order_relaxed);
    }
    workers_.reserve(options_.numThreads);
    for (unsigned tid = 0; tid < options_.numThreads; ++tid)
        workers_.emplace_back([this, tid] { workerEntry(tid); });
    if (supervisor_)
        supervisorThread_ = std::thread([this] { supervisorLoop(); });
}

ExecutorService::~ExecutorService()
{
    shutdown();
}

JobHandle
ExecutorService::submit(JobSpec spec)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    auto record = std::make_shared<JobRecord>(options_.numThreads, this);
    record->id = nextJobId_.fetch_add(1, std::memory_order_relaxed);
    record->name = spec.name.empty()
                       ? "job-" + std::to_string(record->id)
                       : std::move(spec.name);
    record->process = std::move(spec.process);
    record->retry = spec.retry;
    record->priority = spec.priority;
    record->tenant = spec.tenant;
    record->demotePenalty = spec.demotePenalty;
    record->submitNs = nowNs();
    if (spec.deadlineMs > 0)
        record->deadlineNs =
            record->submitNs + spec.deadlineMs * 1000000ull;
    if (spec.demoteAfterMs > 0)
        record->demoteAfterNs =
            record->submitNs + spec.demoteAfterMs * 1000000ull;
    record->initial = std::move(spec.initial);
    for (Task &t : record->initial) {
        t.job = record->id;
        t.attempt = 0;
    }
    record->cost =
        std::max<double>(1.0, double(record->initial.size()));

    auto reject = [&](RejectReason reason, const std::string &why) {
        record->rejectReason.store(reason, std::memory_order_release);
        record->latch.fail(why);
        {
            std::lock_guard<std::mutex> lock(record->waitMutex);
            record->state.store(JobState::Rejected,
                                std::memory_order_release);
        }
        record->waitCv.notify_all();
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return JobHandle(record);
    };

    if (!record->process) {
        return reject(RejectReason::InvalidSpec,
                      "job '" + record->name +
                          "' rejected: no ProcessFn");
    }
    if (record->retry.maxAttempts < 1) {
        return reject(RejectReason::InvalidSpec,
                      "job '" + record->name +
                          "' rejected: maxAttempts must be >= 1");
    }

    // The job must be findable by id before any of its tasks can be
    // popped, and tasks become poppable the moment an adopter seeds
    // them — so the table insert happens before the admission insert.
    {
        std::unique_lock<std::shared_mutex> lock(jobsMutex_);
        jobs_.emplace(record->id, record);
    }

    bool admittedNow = false;
    RejectReason reason = RejectReason::QueueFull;
    size_t tenantCap = 0;
    {
        std::unique_lock<std::mutex> lock(admitMutex_);
        TenantState &ts = tenantStateLocked(spec.tenant);
        ts.submitted++;
        double weight =
            spec.weight > 0.0 ? spec.weight : ts.quota.weight;
        record->weight = weight > 0.0 ? weight : 1.0;
        record->tenantState = &ts;
        tenantCap = ts.quota.maxQueuedJobs;

        auto globalFull = [&] {
            return queuedJobs_ >= options_.admissionCapacity;
        };
        auto tenantFull = [&] {
            return ts.quota.maxQueuedJobs != 0 &&
                   ts.backlog.size() >= ts.quota.maxQueuedJobs;
        };

        if (!ts.bucket.tryTake(nowNs())) {
            // Rate limits always reject: a blocked rate-limited
            // submitter would have no event to wake it.
            reason = RejectReason::TenantRateLimited;
            ts.rejected++;
        } else {
            bool full = globalFull() || tenantFull();
            // Fault drill: admission pretends the queue is full.
            // Forces the rejection path even for blocking submitters
            // (blocking on a fictitious full queue would hang
            // forever).
            bool forcedFull = faultFires(faultsite::SvcAdmitFull);
            if ((full && !options_.blockWhenFull) || forcedFull) {
                reason = (!forcedFull && tenantFull() && !globalFull())
                             ? RejectReason::TenantQueueFull
                             : RejectReason::QueueFull;
                ts.rejected++;
            } else {
                if (full) {
                    admitSpace_.wait(lock, [&] {
                        return shutdown_.load(
                                   std::memory_order_acquire) ||
                               escalated_.load(
                                   std::memory_order_acquire) ||
                               (!globalFull() && !tenantFull());
                    });
                }
                if (!shutdown_.load(std::memory_order_acquire) &&
                    !escalated_.load(std::memory_order_acquire)) {
                    ts.backlog.emplace(
                        std::make_pair(record->priority, record->id),
                        record);
                    // Newly backlogged tenant: freeze its head start
                    // tag NOW. The tag must not be re-derived from the
                    // advancing global clock at every dispatch bid, or
                    // a light tenant's bid would slide forward with
                    // vtime_ forever and never be served (see
                    // adoptOne).
                    if (ts.backlog.size() == 1)
                        ts.headStart =
                            std::max(vtime_, ts.virtualFinish);
                    ++queuedJobs_;
                    ts.admitted++;
                    // Counted under admitMutex_, where idle workers
                    // check it before sleeping: no lost wakeup.
                    activeJobs_.fetch_add(1, std::memory_order_acq_rel);
                    admittedNow = true;
                } else {
                    reason = escalated_.load(std::memory_order_acquire)
                                 ? RejectReason::Escalated
                                 : RejectReason::ShuttingDown;
                    ts.rejected++;
                }
            }
        }
    }

    if (!admittedNow) {
        {
            std::unique_lock<std::shared_mutex> lock(jobsMutex_);
            jobs_.erase(record->id);
        }
        std::string why = "job '" + record->name + "' rejected: ";
        switch (reason) {
          case RejectReason::Escalated:
            why += "service escalated (worker restart budget "
                   "exhausted)";
            break;
          case RejectReason::ShuttingDown:
            why += "service shutting down";
            break;
          case RejectReason::TenantQueueFull:
            why += "tenant " + std::to_string(spec.tenant) +
                   " queue quota reached (max " +
                   std::to_string(tenantCap) + " queued jobs)";
            break;
          case RejectReason::TenantRateLimited:
            why += "tenant " + std::to_string(spec.tenant) +
                   " admission rate limit exceeded";
            break;
          default:
            why += "admission queue full (capacity " +
                   std::to_string(options_.admissionCapacity) + ")";
            break;
        }
        return reject(reason, why);
    }

    admitted_.fetch_add(1, std::memory_order_relaxed);
    // Threads start with the first job that needs them. A one-job
    // service (run()) thus queues its job before any worker exists, and
    // the first worker to start adopts it without a wakeup.
    if (record->deadlineNs != 0 || record->demoteAfterNs != 0 ||
        options_.watchdogMs > 0 || options_.metrics) {
        std::call_once(monitorStarted_, [this] {
            deadlineMonitor_ = std::thread([this] { deadlineLoop(); });
        });
    }
    std::call_once(poolStarted_, [this] { startPool(); });
    work_.notify_one(); // an adopter; seeding wakes the rest
    return JobHandle(record);
}

ExecutorService::TenantState &
ExecutorService::tenantStateLocked(TenantId id)
{
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
        auto state = std::make_unique<TenantState>();
        state->id = id;
        state->bucket.configure(0.0, 1.0, nowNs());
        it = tenants_.emplace(id, std::move(state)).first;
    }
    return *it->second;
}

uint64_t
ExecutorService::inFlightTasksLocked(const TenantState *tenant) const
{
    uint64_t total = 0;
    std::shared_lock<std::shared_mutex> lock(jobsMutex_);
    for (const auto &[id, record] : jobs_) {
        if ((tenant == nullptr || record->tenantState == tenant) &&
            !jobStateTerminal(record->state.load(std::memory_order_acquire)))
            total += record->term.pendingApprox();
    }
    return total;
}

bool
ExecutorService::adoptOne(unsigned tid)
{
    // Every worker asks at every loop top, so the common "nothing
    // queued" answer must not take the lock.
    if (queuedJobs_.load(std::memory_order_acquire) == 0)
        return false;
    RecordPtr record;
    {
        std::lock_guard<std::mutex> lock(admitMutex_);
        if (queuedJobs_ == 0)
            return false;
        // Global in-flight budget: at saturation dispatch is the
        // bottleneck, so the SFQ pick below governs the completed-task
        // share. (A dispatched job may overshoot the budget with its
        // whole seed batch; the gate only delays *further* jobs.)
        if (options_.maxInFlightTasks != 0 &&
            inFlightTasksLocked(nullptr) >= options_.maxInFlightTasks)
            return false;
        // Start-time fair queueing: each backlogged, quota-eligible
        // tenant bids with its FROZEN head start tag (stamped when the
        // job reached the head of the tenant's backlog — at admission
        // into an empty backlog, or right after the previous dispatch)
        // plus cost/weight for the head job. The smallest candidate
        // finish wins; equal finishes go to the smaller start tag (the
        // tenant that has waited longest in virtual time), then to the
        // lowest tenant id via map order. Freezing the start tag is
        // the load-bearing part: re-deriving it from the advancing
        // global clock at every bid would slide a light tenant's
        // finish forward in lockstep with a heavy tenant's dispatches
        // — max(vtime, finish) + 1/w grows exactly as fast as the
        // winner's next bid — and starve it, which is the bug this
        // policy replaces. The start tie-break matters too: with unit
        // costs and integer weight ratios, finish ties recur every
        // round, and breaking them by id alone would hand a lower-id
        // heavy tenant the win forever. Charging cost/weight means a
        // weight-2 tenant's clock advances half as fast — twice the
        // dispatch share while both are backlogged — and taking
        // max(vtime_, virtualFinish) at head promotion means idle
        // time banks no credit.
        TenantState *best = nullptr;
        double bestFinish = 0.0;
        for (auto &[id, state] : tenants_) {
            TenantState &ts = *state;
            if (ts.backlog.empty())
                continue;
            if (ts.quota.maxInFlightTasks != 0 &&
                inFlightTasksLocked(&ts) >= ts.quota.maxInFlightTasks)
                continue;
            // Head cost is read live (a higher-priority job may have
            // displaced the head since promotion); the start tag is
            // the frozen one.
            const Record &head = *ts.backlog.begin()->second;
            double finish = ts.headStart + head.cost / head.weight;
            if (best == nullptr || finish < bestFinish ||
                (finish == bestFinish &&
                 ts.headStart < best->headStart)) {
                best = &ts;
                bestFinish = finish;
            }
        }
        if (best == nullptr)
            return false; // every backlogged tenant is quota-gated
        auto it = best->backlog.begin();
        record = it->second;
        best->backlog.erase(it);
        --queuedJobs_;
        // The global clock tracks the served start tag, monotonically
        // (a frozen tag can lag vtime_ when the tenant sat quota-gated
        // — served late must not drag the clock backwards).
        vtime_ = std::max(vtime_, best->headStart);
        best->virtualFinish = bestFinish;
        // Promote the next job in this tenant's backlog: its start tag
        // freezes here, not at bid time.
        if (!best->backlog.empty())
            best->headStart = std::max(vtime_, best->virtualFinish);
    }
    admitSpace_.notify_one(); // freed one admission slot

    // Only the adopter transitions a popped record out of Queued:
    // cancel and deadline expiry finish a queued job only after
    // erasing it from the queue themselves (under admitMutex_), so a
    // record we popped is still ours.
    JobState expected = JobState::Queued;
    bool owned = record->state.compare_exchange_strong(
        expected, JobState::Running, std::memory_order_acq_rel);
    hdcps_check(owned, "adopted job %u not in Queued state",
                record->id);

    // Seed under this worker's own tid (the only one this thread may
    // push on). Chunked so bag-based designs see child-batch-sized
    // pushBatch calls rather than one giant bag.
    std::vector<Task> seeds = std::move(record->initial);
    record->initial.clear();
    // A job deprioritized while still queued seeds at its current
    // standing — stamped and penalized up front, so its incarnations
    // never need the pop-time re-tag.
    uint32_t level = std::min(
        record->demoteLevel.load(std::memory_order_acquire),
        kMaxDemoteLevel);
    if (level != 0) {
        for (Task &t : seeds) {
            t.attempt = packAttempt(0, level);
            t.priority += Priority(level) * record->demotePenalty;
        }
    }
    if (seeds.empty()) {
        // A job admitted with zero seed tasks is already quiescent, and
        // no worker will pop a task of it to check.
        maybeFinishJob(record);
        return true;
    }
    record->term.noteCreated(tid, seeds.size());
    constexpr size_t chunk = 256;
    for (size_t i = 0; i < seeds.size(); i += chunk) {
        size_t n = std::min(chunk, seeds.size() - i);
        sched_.pushBatch(tid, seeds.data() + i, n);
    }
    work_.notify_all(); // idle workers: there is work to pop now
    return true;
}

uint64_t
ExecutorService::retryBackoffUs(const Record &record,
                                const Task &task) const
{
    const RetryPolicy &retry = record.retry;
    if (retry.backoffBaseUs == 0)
        return 0;
    // Exponential in the retry attempt that just failed (the demote
    // stamp in the high bits is standing, not history — it must not
    // widen the backoff), capped, plus deterministic seeded jitter
    // (up to +50%) so co-failing tasks don't retry in lockstep.
    unsigned shift = std::min(retryAttemptOf(task.attempt), 32u);
    uint64_t base = retry.backoffBaseUs << shift;
    base = std::min(base, retry.backoffMaxUs);
    uint64_t jitter =
        mix64(options_.seed ^ (uint64_t(record.id) << 32) ^
              (uint64_t(task.node) << 8) ^
              retryAttemptOf(task.attempt)) %
        (base / 2 + 1);
    return std::min(base + jitter, retry.backoffMaxUs);
}

void
ExecutorService::handleTaskFailure(unsigned tid,
                                   const RecordPtr &record,
                                   const Task &task, const char *what)
{
    uint32_t tries = retryAttemptOf(task.attempt);
    if (tries + 1 < record->retry.maxAttempts) {
        // Transient: back off, then re-push the next incarnation. The
        // bumped attempt makes it a fresh conservation-ledger key —
        // the failed incarnation completes, the retry is created, so
        // per-job accounting stays exact with no shared retry table.
        // The demote stamp rides along unchanged: a retry keeps its
        // standing.
        uint64_t us = retryBackoffUs(*record, task);
        if (us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(us));
        Task again = task;
        again.attempt =
            packAttempt(tries + 1, demoteStampOf(task.attempt));
        record->term.noteCreated(tid);
        sched_.push(tid, again);
        record->term.noteCompleted(tid);
        taskRetries_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::TaskRetries);
        return;
    }
    if (record->retry.deadLetterOnExhaustion) {
        // Poison quarantine: the task burned every attempt, but the
        // job's policy says divert it, not fail the tenant. The final
        // incarnation lands in the dead-letter queue and is counted
        // completed — the conservation ledger balances (the pop was
        // already recorded) and the job can still reach Completed.
        {
            std::lock_guard<std::mutex> lock(record->poisonMutex);
            record->deadLetters.push_back(task);
        }
        record->poisoned.fetch_add(1, std::memory_order_release);
        poisonedTasks_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::PoisonedTasks);
        record->term.noteCompleted(tid);
        return;
    }
    record->term.noteCompleted(tid);
    std::ostringstream msg;
    msg << "job '" << record->name << "': task (node " << task.node
        << ", prio " << task.priority << ") failed after "
        << (tries + 1) << " attempt(s): ProcessFn threw" << what;
    terminateJob(record, JobState::Failed, msg.str(),
                 /*widenCancelRace=*/false);
}

void
ExecutorService::processTask(Worker &w, const Task &task)
{
    if (!w.job || task.job != w.job->id)
        switchJob(w, task.job);
    w.unchecked = true; // every path below completes the task
    const RecordPtr &record = w.job;
    const unsigned tid = w.tid;
    if (record->latch.stopRequested()) {
        // Draining: the job already failed / was cancelled / expired.
        // Discard the task but keep the ledger exact — the job's
        // outstanding count still reaches zero, which is what the
        // per-job conservation check (VerifyingScheduler ::
        // checkJobDrained) asserts.
        tasksDrained_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::DrainedTasks);
        record->term.noteCompleted(tid);
        return;
    }

    // Cooperative preemption: an incarnation stamped before the job's
    // current demote level is stale — re-tag it at the new standing
    // (penalized priority, fresh stamp) and re-push instead of
    // processing. Ledger-wise this is exactly a retry: the stale
    // incarnation completes, a distinct new key is created, so per-job
    // conservation stays exact through the VerifyingScheduler.
    uint32_t level = std::min(
        record->demoteLevel.load(std::memory_order_acquire),
        kMaxDemoteLevel);
    uint32_t stamp = demoteStampOf(task.attempt);
    if (stamp < level) {
        Task again = task;
        again.attempt =
            packAttempt(retryAttemptOf(task.attempt), level);
        again.priority = task.priority +
                         Priority(level - stamp) *
                             record->demotePenalty;
        record->term.noteCreated(tid);
        sched_.push(tid, again);
        record->term.noteCompleted(tid);
        demotedTasks_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::DemotedTasks);
        return;
    }

    const bool timed = options_.recordBreakdown;
    uint64_t t1 = timed ? nowNs() : 0;
    std::vector<Task> &children = w.children;
    children.clear();
    try {
        // Fault drill: service task processing throws.
        if (faultFires(faultsite::SvcJobFail)) {
            throw FaultInjectedError(
                "injected service task failure (svc.job.fail)");
        }
        record->process(tid, task, children);
    } catch (const std::exception &e) {
        handleTaskFailure(tid, record, task,
                          (std::string(": ") + e.what()).c_str());
        return;
    } catch (...) {
        handleTaskFailure(tid, record, task, " a non-std exception");
        return;
    }
    uint64_t t2 = timed ? nowNs() : 0;

    for (Task &c : children) {
        c.job = record->id;
        // Children are born at the job's current standing: stamped
        // with the level observed above so they skip the re-tag path,
        // and penalized the same way a re-tag would have.
        c.attempt = packAttempt(0, level);
        if (level != 0)
            c.priority += Priority(level) * record->demotePenalty;
    }
    if (!children.empty()) {
        // Children enter the created count *before* they become
        // poppable, so the ledger never transiently reads quiescent
        // while work exists (worker_common.h).
        record->term.noteCreated(tid, children.size());
        sched_.pushBatch(tid, children.data(), children.size());
    }
    record->term.noteCompleted(tid);

    if (timed) {
        w.seen[Component::Compute] += t2 - t1;
        w.seen[Component::Enqueue] += nowNs() - t2;
    }
    ++w.seen.tasksProcessed;
    w.seen.emptyTasks += children.empty();
    ++w.tenantTasks;

    // Design-independent drift reporting (Eq. 1): publish every
    // processed task, sample on worker 0's interval.
    record->drift.publish(tid, task.priority);
    if (++w.popsSinceSample < options_.driftSampleInterval)
        return;
    w.popsSinceSample = 0;
    MetricsRegistry *metrics = options_.metrics;
    if (tid == 0) {
        double drift = record->drift.computeDrift();
        {
            std::lock_guard<std::mutex> lock(record->driftMutex);
            record->driftSeries.record(drift);
        }
        if (metrics) {
            metrics->recordGlobal(GlobalSeries::Drift, drift);
            metrics->set(0, WorkerGauge::PendingTasks,
                         double(record->term.pendingApprox()));
        }
    }
    if (metrics && timed) {
        // Cumulative per-phase breakdown as a series: the deltas
        // between samples localize where time went, which the totals
        // cannot.
        metrics->record(tid, WorkerSeries::EnqueueNs,
                        double(w.seen[Component::Enqueue]));
        metrics->record(tid, WorkerSeries::DequeueNs,
                        double(w.seen[Component::Dequeue]));
        metrics->record(tid, WorkerSeries::ComputeNs,
                        double(w.seen[Component::Compute]));
        metrics->record(tid, WorkerSeries::CommNs,
                        double(w.seen[Component::Comm]));
    }
}

void
ExecutorService::switchJob(Worker &w, JobId id)
{
    RecordPtr next;
    {
        std::shared_lock<std::shared_mutex> lock(jobsMutex_);
        auto it = jobs_.find(id);
        if (it != jobs_.end())
            next = it->second;
    }
    // A popped task's job must be in the table: records leave it only
    // once quiescent, and a task in the scheduler is
    // created-but-not-completed by definition.
    hdcps_check(next != nullptr, "popped task for unknown job %u", id);
    settle(w);
    if (next->tenantState != w.tenant) {
        w.flushTenant();
        w.tenant = next->tenantState;
    }
    w.job = std::move(next);
}

void
ExecutorService::settle(Worker &w)
{
    if (!w.job)
        return;
    w.reportTallies(options_.metrics);
    // The worker that completes a job's last task always passes here
    // next (empty pop, job switch or exit), so checking only after
    // this worker's own completions still finds every finished job.
    // (Not only after leaf tasks: a task's children may all complete
    // on other workers before the task's own completion is counted.)
    if (w.unchecked) {
        w.unchecked = false;
        maybeFinishJob(w.job);
    }
}

void
ExecutorService::workerEntry(unsigned tid)
{
    // Every thread that enters the slot — the pool's original worker
    // and each healed replacement — announces itself to the scheduler
    // first, so topology-aware designs pin it to the slot's node before
    // its first pop.
    sched_.onWorkerStart(tid);
    const uint64_t epoch = supervisor_ ? supervisor_->epochOf(tid) : 0;
    Worker w(tid);
    bool crashed = false;
    try {
        workerLoop(w, epoch);
    } catch (...) {
        // Anything escaping the worker loop — the crash drill or a
        // genuine bug — is a worker death, not process death: latch it
        // so the supervisor heals the slot instead of the pool
        // silently shrinking.
        crashed = true;
    }
    // Shut down, superseded or crashed: this thread may have completed
    // its job's last task, and no other thread will check for it.
    w.flushTenant();
    settle(w);
    if (supervisor_)
        supervisor_->noteExit(tid, crashed);
}

void
ExecutorService::workerLoop(Worker &w, uint64_t epoch)
{
    const unsigned tid = w.tid;
    const bool timed = options_.recordBreakdown;
    const bool watched = options_.watchdogMs > 0;
    IdleBackoff backoff;

    while (true) {
        if (supervisor_) {
            supervisor_->beat(tid, nowNs());
            // Superseded: the supervisor declared this incarnation
            // wedged and bumped the slot epoch. Exit cooperatively —
            // holding no task, loop-top — so the replacement can take
            // over; the supervisor reclaims this thread's queues once
            // it has exited.
            if (supervisor_->superseded(tid, epoch))
                return;
            // Crash drill: die as if a bug killed this worker. The
            // throw escapes to workerEntry, which latches the exit.
            if (faultFires(faultsite::SvcWorkerDie)) {
                throw FaultInjectedError(
                    "injected worker death (svc.worker.die)");
            }
            // Wedge drill: stall here, heartbeat stale, holding no
            // task — the supervisor walks Suspect -> Wedged and
            // supersedes us, caught by the re-check below. A
            // Delay-armed site chooses its own stall; other modes
            // (once/nth/prob) stall 3x the wedged threshold so the
            // detection provably trips.
            if (faultFires(faultsite::SvcWorkerWedge)) {
                uint64_t ns = faultAmount(faultsite::SvcWorkerWedge);
                if (ns == 0) {
                    ns = options_.supervisor.wedgedAfterMs * 3 *
                         1000000ull;
                }
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(ns));
            }
            if (supervisor_->superseded(tid, epoch))
                return;
        }

        // Straggler drill: with an injector installed, this worker may
        // cooperatively sleep here — placed before the pop so a paused
        // worker looks exactly like a descheduled one (stale
        // heartbeat, stranded queues).
        stragglerPausePoint(tid);

        bool adopted = adoptOne(tid);

        uint64_t t0 = timed ? nowNs() : 0;
        Task task;
        // Fault drill: spurious pop failure; the task stays queued.
        bool got = !faultFires(faultsite::ExecPopFail) &&
                   sched_.tryPop(tid, task);
        uint64_t t1 = timed ? nowNs() : 0;
        if (!got) {
            if (timed)
                w.seen[Component::Comm] += t1 - t0;
            if (w.unchecked) {
                w.flushTenant();
                settle(w);
                // Done with it: do not keep a finished job alive.
                if (jobStateTerminal(
                        w.job->state.load(std::memory_order_acquire)))
                    w.job.reset();
            }
            if (adopted)
                continue;
            if (shutdown_.load(std::memory_order_acquire) &&
                activeJobs_.load(std::memory_order_acquire) == 0)
                break;
            if (backoff.idle() &&
                activeJobs_.load(std::memory_order_acquire) == 0) {
                // Truly idle service: no admitted jobs at all, so no
                // tasks can appear except through submit, which counts
                // the job under this mutex and then notifies. Sleep
                // briefly instead of spinning.
                std::unique_lock<std::mutex> lock(admitMutex_);
                if (activeJobs_.load(std::memory_order_acquire) == 0 &&
                    !shutdown_.load(std::memory_order_acquire)) {
                    work_.wait_for(lock,
                                   std::chrono::milliseconds(1));
                }
            }
            continue;
        }
        backoff.reset();
        if (timed)
            w.seen[Component::Dequeue] += t1 - t0;
        if (watched) {
            pops_[tid].value.fetch_add(1, std::memory_order_relaxed);
            lastPopNs_[tid].value.store(timed ? t1 : nowNs(),
                                        std::memory_order_relaxed);
        }
        processTask(w, task);
    }
}

bool
ExecutorService::terminateJob(const RecordPtr &record, JobState verdict,
                              const std::string &message,
                              bool widenCancelRace)
{
    // First verdict wins: the CAS claims the terminal state the
    // finishing worker will publish. Losers only reinforce the stop.
    JobState sentinel = JobState::Completed;
    if (!record->verdict.compare_exchange_strong(
            sentinel, verdict, std::memory_order_acq_rel)) {
        record->latch.requestStop();
        return false;
    }

    // Fault drill: widen the window between claiming the verdict and
    // publishing the drain — the job may complete normally meanwhile,
    // which is exactly the cancel/complete race under test.
    if (widenCancelRace)
        faultSleep(faultsite::SvcCancelRace);

    // Publish: latches the error and raises stop (release), making
    // the verdict visible to any worker that observes the stop.
    record->latch.fail(message);

    // A still-queued job has no tasks to drain: finish it in place.
    // The queue erase and the adopter's pop are both under
    // admitMutex_, so exactly one side wins.
    bool wasQueued = false;
    {
        std::lock_guard<std::mutex> lock(admitMutex_);
        // tenantState is assigned under this mutex at submit; a record
        // terminated in the narrow window before that assignment was
        // never queued.
        if (record->tenantState) {
            wasQueued = record->tenantState->backlog.erase(
                            {record->priority, record->id}) > 0;
            if (wasQueued)
                --queuedJobs_;
        }
    }
    if (wasQueued) {
        admitSpace_.notify_one();
        {
            std::lock_guard<std::mutex> lock(record->waitMutex);
            record->state.store(verdict, std::memory_order_release);
        }
        finishRecord(*record, verdict);
        return true;
    }

    // Running (or mid-adoption): flip the observable state; workers
    // drain via the latch regardless, and the last completion
    // publishes the verdict. The CAS may lose to a concurrent
    // completion — that is the documented race, completion wins.
    JobState running = JobState::Running;
    record->state.compare_exchange_strong(running, JobState::Draining,
                                          std::memory_order_acq_rel);
    return true;
}

void
ExecutorService::maybeFinishJob(const RecordPtr &record, bool force)
{
    // Per-job quiescence: the completed-first two-pass scan
    // (worker_common.h) over this job's ledger only.
    bool quiescent = record->term.quiescent();
    if (!quiescent && !force)
        return;
    JobState expected = record->state.load(std::memory_order_acquire);
    while (!jobStateTerminal(expected)) {
        JobState terminal =
            record->latch.stopRequested()
                ? record->verdict.load(std::memory_order_acquire)
                : JobState::Completed;
        bool won;
        {
            // State flips to terminal under waitMutex so wait()'s
            // predicate check can't miss the wakeup.
            std::lock_guard<std::mutex> lock(record->waitMutex);
            won = record->state.compare_exchange_strong(
                expected, terminal, std::memory_order_acq_rel);
        }
        if (won) {
            finishRecord(*record, terminal, quiescent);
            return;
        }
        // `expected` was refreshed by the failed CAS (e.g. a
        // concurrent Running -> Draining flip); re-evaluate.
    }
}

void
ExecutorService::finishRecord(Record &record, JobState terminal,
                              bool quiescent)
{
    // Exactly-once per admitted job: callers reach here only after
    // winning the terminal-state transition.
    double ms =
        static_cast<double>(nowNs() - record.submitNs) / 1e6;
    record.latencyMs.store(ms, std::memory_order_release);

    if (quiescent) {
        std::unique_lock<std::shared_mutex> lock(jobsMutex_);
        jobs_.erase(record.id);
    }

    switch (terminal) {
      case JobState::Completed:
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (record.tenantState) {
            record.tenantState->jobsCompleted.fetch_add(
                1, std::memory_order_relaxed);
        }
        break;
      case JobState::Failed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobState::Cancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        hdcps_check(false, "finishRecord with non-terminal state %u",
                    unsigned(terminal));
    }

    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        latenciesMs_.push_back(ms);
        // latencyMutex_ serializes writers, satisfying the global
        // series single-writer contract.
        if (options_.metrics) {
            options_.metrics->recordGlobal(GlobalSeries::JobLatencyMs,
                                           ms);
        }
    }

    activeJobs_.fetch_sub(1, std::memory_order_acq_rel);
    record.waitCv.notify_all();
    work_.notify_all(); // shutdown exit condition may hold now
    deadlineCv_.notify_all();
}

void
ExecutorService::deadlineLoop()
{
    std::vector<RecordPtr> expired;
    std::vector<RecordPtr> pressured;
    uint64_t lastSeriesNs = 0;
    lastProgressNs_ = nowNs();
    while (true) {
        {
            std::unique_lock<std::mutex> lock(deadlineMutex_);
            deadlineCv_.wait_for(
                lock, std::chrono::milliseconds(1), [this] {
                    return shutdown_.load(std::memory_order_acquire) &&
                           activeJobs_.load(
                               std::memory_order_acquire) == 0;
                });
        }
        if (shutdown_.load(std::memory_order_acquire) &&
            activeJobs_.load(std::memory_order_acquire) == 0)
            return;

        expired.clear();
        pressured.clear();
        uint64_t now = nowNs();
        const bool watched = options_.watchdogMs > 0;
        uint64_t pending = 0;
        {
            std::shared_lock<std::shared_mutex> lock(jobsMutex_);
            for (const auto &[id, record] : jobs_) {
                if (jobStateTerminal(
                        record->state.load(std::memory_order_acquire)))
                    continue;
                if (watched)
                    pending += record->term.pendingApprox();
                if (record->latch.stopRequested())
                    continue;
                if (record->deadlineNs != 0 &&
                    now > record->deadlineNs) {
                    expired.push_back(record);
                } else if (record->demoteAfterNs != 0 &&
                           now > record->demoteAfterNs &&
                           record->demoteLevel.load(
                               std::memory_order_relaxed) == 0) {
                    pressured.push_back(record);
                }
            }
        }
        for (const RecordPtr &record : expired) {
            uint64_t budget =
                (record->deadlineNs - record->submitNs) / 1000000;
            std::ostringstream msg;
            msg << "job '" << record->name << "': deadline of "
                << budget << " ms exceeded";
            if (terminateJob(record, JobState::Failed, msg.str(),
                             /*widenCancelRace=*/false)) {
                deadlineExpired_.fetch_add(1,
                                           std::memory_order_relaxed);
            }
        }
        // Deadline-pressure auto-demotion: a job past its soft budget
        // keeps running at lower standing instead of failing. One
        // level only — the CAS loses to a racing deprioritize(), which
        // already lowered the job further.
        for (const RecordPtr &record : pressured) {
            uint32_t zero = 0;
            if (record->demoteLevel.compare_exchange_strong(
                    zero, 1, std::memory_order_acq_rel)) {
                autoDemotedJobs_.fetch_add(1,
                                           std::memory_order_relaxed);
            }
        }
        if (watched)
            checkProgress(now, pending);
        // Per-tenant share/backlog series, paced to ~10ms. The
        // deadline monitor is the single writer of these customSeries
        // rings, satisfying the registry's single-writer contract.
        if (options_.metrics && now - lastSeriesNs >= 10000000ull) {
            lastSeriesNs = now;
            recordTenantSeries();
        }
    }
}

void
ExecutorService::checkProgress(uint64_t now, uint64_t pending)
{
    uint64_t pops = 0;
    for (const auto &p : pops_)
        pops += p.value.load(std::memory_order_relaxed);
    if (pending == 0 || pops != watchedPops_) {
        watchedPops_ = pops;
        lastProgressNs_ = now;
        return;
    }
    if (now - lastProgressNs_ < options_.watchdogMs * 1000000ull)
        return;
    // Stalled: tasks in flight, nothing popped for a whole window.
    std::ostringstream out;
    out << "watchdog: no task popped for " << options_.watchdogMs
        << " ms with " << pending << " tasks in flight; scheduler '"
        << sched_.name() << "' reports ~" << sched_.sizeApprox()
        << " buffered tasks (0 = unknown); pops per worker:";
    for (size_t tid = 0; tid < pops_.size(); ++tid) {
        uint64_t pops = pops_[tid].value.load(std::memory_order_relaxed);
        uint64_t last =
            lastPopNs_[tid].value.load(std::memory_order_relaxed);
        uint64_t ageMs = now > last ? (now - last) / 1000000 : 0;
        out << (tid == 0 ? " " : ", ") << "w" << tid << "=" << pops;
        if (pops == 0)
            out << " (no pops, " << ageMs << " ms since start)";
        else
            out << " (last pop " << ageMs << " ms ago)";
    }
    if (options_.metrics) {
        out << "; counters:";
        MetricsSnapshot snap = options_.metrics->snapshot();
        bool first = true;
        for (const auto &counter : snap.counters) {
            if (counter.total == 0)
                continue;
            out << (first ? " " : ", ") << counter.name << "="
                << counter.total;
            first = false;
        }
        if (first)
            out << " (all zero)";
    }
    // The stranded tasks may never surface, so the live jobs are
    // finished without waiting for their drain; they stay in the job
    // table in case the tasks do surface and need discarding.
    const std::string why = out.str();
    std::vector<RecordPtr> live;
    {
        std::shared_lock<std::shared_mutex> lock(jobsMutex_);
        for (const auto &[id, record] : jobs_) {
            if (!jobStateTerminal(
                    record->state.load(std::memory_order_acquire)))
                live.push_back(record);
        }
    }
    for (const RecordPtr &record : live) {
        terminateJob(record, JobState::Failed, why,
                     /*widenCancelRace=*/false);
        maybeFinishJob(record, /*force=*/true);
    }
    lastProgressNs_ = now;
}

void
ExecutorService::recordTenantSeries()
{
    struct Row
    {
        TenantState *state;
        uint64_t processed;
        size_t backlog;
    };
    std::vector<Row> rows;
    {
        std::lock_guard<std::mutex> lock(admitMutex_);
        rows.reserve(tenants_.size());
        for (auto &[id, state] : tenants_) {
            TenantState &ts = *state;
            if (ts.shareSeries < 0) {
                std::string base = "tenant" + std::to_string(id);
                ts.shareSeries =
                    options_.metrics->customSeries(base + ".share");
                ts.backlogSeries =
                    options_.metrics->customSeries(base + ".backlog");
            }
            rows.push_back(
                {&ts,
                 ts.tasksProcessed.load(std::memory_order_relaxed),
                 ts.backlog.size()});
        }
    }
    // Record outside the admission lock: TenantState addresses are
    // stable, and only this thread touches lastTasksProcessed or
    // writes these series.
    uint64_t totalDelta = 0;
    for (const Row &row : rows)
        totalDelta += row.processed - row.state->lastTasksProcessed;
    for (const Row &row : rows) {
        uint64_t delta = row.processed - row.state->lastTasksProcessed;
        row.state->lastTasksProcessed = row.processed;
        if (totalDelta > 0) {
            options_.metrics->recordCustom(
                row.state->shareSeries,
                double(delta) / double(totalDelta));
        }
        options_.metrics->recordCustom(row.state->backlogSeries,
                                       double(row.backlog));
    }
}

void
ExecutorService::supervisorLoop()
{
    const auto interval = std::chrono::milliseconds(
        std::max<uint64_t>(options_.supervisor.probeIntervalMs, 1));
    while (true) {
        {
            std::unique_lock<std::mutex> lock(supervisorMutex_);
            supervisorCv_.wait_for(lock, interval, [this] {
                return shutdown_.load(std::memory_order_acquire) &&
                       activeJobs_.load(std::memory_order_acquire) ==
                           0;
            });
        }
        // Supervise *through* the shutdown drain — a worker that dies
        // mid-drain still needs healing or its jobs never quiesce —
        // and exit only once every admitted job is terminal.
        if (shutdown_.load(std::memory_order_acquire) &&
            activeJobs_.load(std::memory_order_acquire) == 0)
            return;
        for (unsigned tid = 0; tid < options_.numThreads; ++tid) {
            switch (supervisor_->poll(tid, nowNs())) {
              case WorkerSupervisor::Decision::Quarantine:
                // Superseded but possibly still inside push: only stop
                // routing work at it. Its queues are reclaimed once it
                // has exited (healWorker / escalateService).
                sched_.quarantine(tid);
                break;
              case WorkerSupervisor::Decision::Restart:
                healWorker(tid);
                break;
              case WorkerSupervisor::Decision::Escalate:
                escalateService(tid);
                break;
              case WorkerSupervisor::Decision::None:
                break;
            }
        }
    }
}

size_t
ExecutorService::quarantineAndReclaim(unsigned tid)
{
    sched_.quarantine(tid);
    const unsigned peer = (tid + 1) % options_.numThreads;
    uint64_t t0 = nowNs();
    size_t moved = sched_.reclaimWorker(peer, tid);
    if (options_.metrics) {
        // Only the supervisor thread ever writes this global series,
        // so its single-writer busy cell never sees overlap.
        options_.metrics->recordGlobal(GlobalSeries::ReclaimLatencyMs,
                                       double(nowNs() - t0) / 1e6);
    }
    work_.notify_all(); // reclaimed tasks now sit with (idle?) peers
    return moved;
}

void
ExecutorService::healWorker(unsigned tid)
{
    // The dead incarnation latched its exit, so this join is prompt;
    // after it the slot has exactly zero driver threads.
    if (workers_[tid].joinable())
        workers_[tid].join();
    // Reclaim *after* the join: a superseded thread may still have
    // been pushing until its exit, and a crash-path death was never
    // quarantined at all. Either way nothing strands in a slot nobody
    // drives. (Quarantining twice is harmless.)
    quarantineAndReclaim(tid);
    supervisor_->noteRestarted(tid, nowNs());
    if (options_.metrics) {
        // Post-join, pre-spawn: nothing else drives slot tid's metric
        // row, so these writes satisfy the single-writer check.
        options_.metrics->add(tid, WorkerCounter::WorkerRestarts);
        uint64_t flips = supervisor_->drainTransitions(tid);
        if (flips > 0) {
            options_.metrics->add(
                tid, WorkerCounter::HealthTransitions, flips);
        }
    }
    workers_[tid] = std::thread([this, tid] { workerEntry(tid); });
    sched_.reinstate(tid);
}

void
ExecutorService::escalateService(unsigned tid)
{
    // First escalation fails the tenants; every escalated slot (more
    // workers may die afterwards with the budget already spent) is
    // individually joined, reclaimed, retired, and drained.
    const bool first =
        !escalated_.exchange(true, std::memory_order_acq_rel);
    admitSpace_.notify_all(); // blocked submitters re-check and reject

    if (workers_[tid].joinable())
        workers_[tid].join();
    quarantineAndReclaim(tid);
    supervisor_->retire(tid);
    if (options_.metrics) {
        uint64_t flips = supervisor_->drainTransitions(tid);
        if (flips > 0) {
            options_.metrics->add(
                tid, WorkerCounter::HealthTransitions, flips);
        }
    }

    if (first) {
        std::vector<RecordPtr> live;
        {
            std::shared_lock<std::shared_mutex> lock(jobsMutex_);
            live.reserve(jobs_.size());
            for (const auto &[id, record] : jobs_)
                live.push_back(record);
        }
        for (const RecordPtr &record : live) {
            terminateJob(record, JobState::Failed,
                         "job '" + record->name +
                             "' failed: service escalated (worker "
                             "restart budget exhausted)",
                         /*widenCancelRace=*/false);
            maybeFinishJob(record);
        }
    }

    // Drain the retired slot ourselves: with no thread driving it —
    // and possibly no live worker left at all — its remaining tasks
    // must still reach their pop so every job's ledger balances. Every
    // job has failed by now, so processTask only discards.
    Worker drainer(tid);
    Task task;
    while (sched_.tryPop(tid, task))
        processTask(drainer, task);
    settle(drainer);
    work_.notify_all();
}

uint64_t
ExecutorService::activeJobs() const
{
    return activeJobs_.load(std::memory_order_acquire);
}

ServiceStats
ExecutorService::stats() const
{
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.deadlineExpired =
        deadlineExpired_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.taskRetries = taskRetries_.load(std::memory_order_relaxed);
    s.tasksDrained = tasksDrained_.load(std::memory_order_relaxed);
    s.poisonedTasks = poisonedTasks_.load(std::memory_order_relaxed);
    s.demotedTasks = demotedTasks_.load(std::memory_order_relaxed);
    s.autoDemotedJobs =
        autoDemotedJobs_.load(std::memory_order_relaxed);
    if (supervisor_) {
        SupervisorStats sup = supervisor_->stats();
        s.workerRestarts = sup.workerRestarts;
        s.healthTransitions = sup.healthTransitions;
        s.wedgesDetected = sup.wedgesDetected;
        s.crashesDetected = sup.crashesDetected;
        s.escalated = sup.escalated;
    }

    std::vector<double> lat;
    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        lat = latenciesMs_;
    }
    s.jobsMeasured = lat.size();
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        auto pct = [&lat](double q) {
            size_t idx = static_cast<size_t>(q * double(lat.size()));
            return lat[std::min(idx, lat.size() - 1)];
        };
        s.jobLatencyP50Ms = pct(0.50);
        s.jobLatencyP99Ms = pct(0.99);
        s.jobLatencyMaxMs = lat.back();
    }
    return s;
}

std::vector<TenantStats>
ExecutorService::tenantStats() const
{
    std::vector<TenantStats> out;
    std::lock_guard<std::mutex> lock(admitMutex_);
    out.reserve(tenants_.size());
    for (const auto &[id, state] : tenants_) {
        const TenantState &ts = *state;
        TenantStats s;
        s.tenant = id;
        s.weight = ts.quota.weight;
        s.submitted = ts.submitted;
        s.admitted = ts.admitted;
        s.rejected = ts.rejected;
        s.jobsCompleted =
            ts.jobsCompleted.load(std::memory_order_relaxed);
        s.tasksProcessed =
            ts.tasksProcessed.load(std::memory_order_relaxed);
        s.queuedJobs = ts.backlog.size();
        s.inFlightTasks = inFlightTasksLocked(&ts);
        s.virtualFinish = ts.virtualFinish;
        out.push_back(s);
    }
    return out;
}

WorkerHealth
ExecutorService::workerHealth(unsigned tid) const
{
    hdcps_check(tid < options_.numThreads, "bad worker id %u", tid);
    return supervisor_ ? supervisor_->health(tid)
                       : WorkerHealth::Healthy;
}

bool
ExecutorService::escalated() const
{
    return escalated_.load(std::memory_order_acquire);
}

void
ExecutorService::shutdown()
{
    std::lock_guard<std::mutex> guard(shutdownMutex_);
    shutdown_.store(true, std::memory_order_release);
    // Pass through each sleeper's mutex before notifying: a thread
    // between its shutdown_ check and its wait would otherwise miss
    // the wakeup and sleep out its full timeout.
    auto wake = [](std::mutex &mutex, std::condition_variable &cv) {
        { std::lock_guard<std::mutex> lock(mutex); }
        cv.notify_all();
    };
    wake(admitMutex_, admitSpace_);
    wake(admitMutex_, work_);
    wake(deadlineMutex_, deadlineCv_);
    wake(supervisorMutex_, supervisorCv_);
    // The supervisor heals through the drain and exits once every job
    // is terminal; join it *first* so it stops swapping replacement
    // threads into workers_ before we join those.
    if (supervisorThread_.joinable())
        supervisorThread_.join();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    if (deadlineMonitor_.joinable())
        deadlineMonitor_.join();
}

} // namespace hdcps
