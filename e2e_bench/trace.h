/**
 * @file
 * Tracing for the benchmark's traced run: a timing decorator around
 * any Scheduler, a probe around the ProcessFn, and an in-memory span
 * log written out when the benchmark ends.
 *
 * The decorator forwards every virtual of the Scheduler interface (the
 * same forwarding VerifyingScheduler does), so HD-CPS placement, bags
 * and metrics take the same paths as in an untraced run; it only adds
 * counting and, on sampled calls, two clock reads. pushBatch is one
 * call, because
 * the runtime hands a parent's children to the design as one batch.
 *
 * Once-per-task calls are never logged one span per call: each worker
 * keeps a cache-line slot of exact counts and sampled nanoseconds, and
 * an answer's root span carries their totals.
 */

#ifndef HDCPS_E2E_BENCH_TRACE_H_
#define HDCPS_E2E_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cps/scheduler.h"
#include "support/compiler.h"
#include "support/timer.h"

namespace e2e {

/** Add to a single-writer counter without a locked RMW: each slot
 *  belongs to one worker id, which one thread drives at a time. */
inline void
bump(std::atomic<uint64_t> &counter, uint64_t n)
{
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

/**
 * Timing gate: 1 in 2^kTimeShift calls per worker is timed, the rest
 * only counted. Each clock read costs ~40 ns on a VM, several per
 * task; sampling keeps the traced run close to the untraced one while
 * a window still times thousands of calls.
 */
constexpr unsigned kTimeShift = 3;

/** Per-worker sampling state (owner-only, like the counters). */
inline bool
timeThisCall(std::atomic<uint64_t> &tick)
{
    uint64_t n = tick.load(std::memory_order_relaxed);
    tick.store(n + 1, std::memory_order_relaxed);
    return (n & ((uint64_t(1) << kTimeShift) - 1)) == 0;
}

/** Scheduler-call totals over all workers. Counts are exact; the ns
 *  sums cover only the timed calls. */
struct OpTotals
{
    uint64_t pushCalls = 0; ///< push + pushBatch calls
    uint64_t pushTasks = 0; ///< tasks those calls carried
    uint64_t pushTimed = 0;
    uint64_t pushNs = 0;
    uint64_t popCalls = 0;
    uint64_t popEmpty = 0;  ///< tryPop calls that returned false
    uint64_t popTimed = 0;
    uint64_t popNs = 0;

    OpTotals &operator+=(const OpTotals &o);
    OpTotals operator-(const OpTotals &o) const;
};

/** Timing decorator: forwards every Scheduler virtual to `inner`. */
class TimedScheduler : public hdcps::Scheduler
{
  public:
    explicit TimedScheduler(hdcps::Scheduler &inner);

    void
    push(unsigned tid, const hdcps::Task &task) override
    {
        Slot &s = slots_[tid];
        bump(s.pushCalls, 1);
        bump(s.pushTasks, 1);
        if (!timeThisCall(s.tick)) {
            inner_.push(tid, task);
            return;
        }
        uint64_t t0 = hdcps::nowNs();
        inner_.push(tid, task);
        bump(s.pushNs, hdcps::nowNs() - t0);
        bump(s.pushTimed, 1);
    }

    void
    pushBatch(unsigned tid, const hdcps::Task *tasks,
              size_t count) override
    {
        Slot &s = slots_[tid];
        bump(s.pushCalls, 1);
        bump(s.pushTasks, count);
        if (!timeThisCall(s.tick)) {
            inner_.pushBatch(tid, tasks, count);
            return;
        }
        uint64_t t0 = hdcps::nowNs();
        inner_.pushBatch(tid, tasks, count);
        bump(s.pushNs, hdcps::nowNs() - t0);
        bump(s.pushTimed, 1);
    }

    bool
    tryPop(unsigned tid, hdcps::Task &out) override
    {
        Slot &s = slots_[tid];
        bump(s.popCalls, 1);
        bool got;
        if (!timeThisCall(s.tick)) {
            got = inner_.tryPop(tid, out);
        } else {
            uint64_t t0 = hdcps::nowNs();
            got = inner_.tryPop(tid, out);
            bump(s.popNs, hdcps::nowNs() - t0);
            bump(s.popTimed, 1);
        }
        if (!got)
            bump(s.popEmpty, 1);
        return got;
    }

    const char *name() const override { return inner_.name(); }
    size_t sizeApprox() const override { return inner_.sizeApprox(); }

    void
    setReclaimAfterMs(uint64_t ms) override
    {
        inner_.setReclaimAfterMs(ms);
    }

    void onWorkerStart(unsigned tid) override { inner_.onWorkerStart(tid); }
    void quarantine(unsigned tid) override { inner_.quarantine(tid); }
    void reinstate(unsigned tid) override { inner_.reinstate(tid); }

    size_t
    reclaimWorker(unsigned reclaimer, unsigned victim) override
    {
        return inner_.reclaimWorker(reclaimer, victim);
    }

    void
    attachMetrics(hdcps::MetricsRegistry *metrics) override
    {
        Scheduler::attachMetrics(metrics);
        inner_.attachMetrics(metrics);
    }

    /** Sum of every worker's slot (exact once the callers quiesced). */
    OpTotals totals() const;

  private:
    struct alignas(hdcps::cacheLineBytes) Slot
    {
        std::atomic<uint64_t> tick{0};
        std::atomic<uint64_t> pushCalls{0}, pushTasks{0};
        std::atomic<uint64_t> pushTimed{0}, pushNs{0};
        std::atomic<uint64_t> popCalls{0}, popEmpty{0};
        std::atomic<uint64_t> popTimed{0}, popNs{0};
    };

    hdcps::Scheduler &inner_;
    std::unique_ptr<Slot[]> slots_;
};

/**
 * Probe around one answer's ProcessFn: the first task's start, the
 * last timed task's end, exact call counts and sampled nanoseconds.
 * The last end is taken from timed calls only, so quiescence reads
 * long by at most 2^kTimeShift - 1 task durations (~2 us).
 */
class ProcessProbe
{
  public:
    explicit ProcessProbe(unsigned workers);

    template <typename F>
    void
    around(unsigned tid, F &&process)
    {
        Slot &s = slots_[tid];
        bump(s.calls, 1);
        bool timed = timeThisCall(s.tick);
        if (!timed && first_.load(std::memory_order_relaxed) != 0) {
            process();
            return;
        }
        uint64_t t0 = hdcps::nowNs();
        uint64_t none = 0;
        first_.compare_exchange_strong(none, t0,
                                       std::memory_order_relaxed);
        process();
        uint64_t t1 = hdcps::nowNs();
        bump(s.timed, 1);
        bump(s.ns, t1 - t0);
        s.lastEnd.store(t1, std::memory_order_relaxed);
    }

    uint64_t firstStartNs() const
    {
        return first_.load(std::memory_order_relaxed);
    }
    uint64_t lastEndNs() const;
    uint64_t calls() const;
    uint64_t timed() const; ///< calls that were timed
    uint64_t ns() const;    ///< summed over the timed calls

  private:
    struct alignas(hdcps::cacheLineBytes) Slot
    {
        std::atomic<uint64_t> tick{0}, calls{0}, timed{0}, ns{0};
        std::atomic<uint64_t> lastEnd{0};
    };

    unsigned workers_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> first_{0};
};

/** One span: spans of one answer share `answer`; the root has no
 *  parent and carries the answer's per-task aggregates. */
struct Span
{
    uint64_t answer = 0;
    const char *name = "";
    const char *parent = ""; ///< "" for the root
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    std::vector<std::pair<const char *, uint64_t>> counts;
};

/** Spans kept in memory during the run and written out at exit. */
class SpanLog
{
  public:
    void
    add(uint64_t answer, const char *name, const char *parent,
        uint64_t startNs, uint64_t endNs)
    {
        spans_.push_back(Span{answer, name, parent, startNs, endNs, {}});
    }

    /** Add a root span with its per-task aggregates. */
    void
    addRoot(uint64_t answer, uint64_t startNs, uint64_t endNs,
            std::vector<std::pair<const char *, uint64_t>> counts)
    {
        spans_.push_back(
            Span{answer, "answer", "", startNs, endNs, std::move(counts)});
    }

    size_t size() const { return spans_.size(); }

    /** Write one JSON object per span (times in ns relative to the
     *  earliest span). Returns false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

} // namespace e2e

#endif // HDCPS_E2E_BENCH_TRACE_H_
