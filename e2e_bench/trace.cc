#include "trace.h"

#include <algorithm>
#include <fstream>

namespace e2e {

TimedScheduler::TimedScheduler(hdcps::Scheduler &inner)
    : Scheduler(inner.numWorkers()), inner_(inner),
      slots_(std::make_unique<Slot[]>(inner.numWorkers()))
{
    Scheduler::attachMetrics(inner.metrics());
}

OpTotals
TimedScheduler::totals() const
{
    OpTotals t;
    for (unsigned w = 0; w < numWorkers(); ++w) {
        const Slot &s = slots_[w];
        t.pushCalls += s.pushCalls.load(std::memory_order_relaxed);
        t.pushTasks += s.pushTasks.load(std::memory_order_relaxed);
        t.pushTimed += s.pushTimed.load(std::memory_order_relaxed);
        t.pushNs += s.pushNs.load(std::memory_order_relaxed);
        t.popCalls += s.popCalls.load(std::memory_order_relaxed);
        t.popEmpty += s.popEmpty.load(std::memory_order_relaxed);
        t.popTimed += s.popTimed.load(std::memory_order_relaxed);
        t.popNs += s.popNs.load(std::memory_order_relaxed);
    }
    return t;
}

ProcessProbe::ProcessProbe(unsigned workers)
    : workers_(workers), slots_(std::make_unique<Slot[]>(workers))
{}

uint64_t
ProcessProbe::lastEndNs() const
{
    uint64_t last = 0;
    for (unsigned w = 0; w < workers_; ++w)
        last = std::max(last, slots_[w].lastEnd.load(std::memory_order_relaxed));
    return last;
}

uint64_t
ProcessProbe::calls() const
{
    uint64_t n = 0;
    for (unsigned w = 0; w < workers_; ++w)
        n += slots_[w].calls.load(std::memory_order_relaxed);
    return n;
}

uint64_t
ProcessProbe::timed() const
{
    uint64_t n = 0;
    for (unsigned w = 0; w < workers_; ++w)
        n += slots_[w].timed.load(std::memory_order_relaxed);
    return n;
}

uint64_t
ProcessProbe::ns() const
{
    uint64_t n = 0;
    for (unsigned w = 0; w < workers_; ++w)
        n += slots_[w].ns.load(std::memory_order_relaxed);
    return n;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    uint64_t epoch = ~uint64_t(0);
    for (const Span &s : spans_)
        epoch = std::min(epoch, s.startNs);
    for (const Span &s : spans_) {
        out << "{\"answer\":" << s.answer << ",\"span\":\"" << s.name
            << "\",\"parent\":\"" << s.parent
            << "\",\"start_ns\":" << (s.startNs - epoch)
            << ",\"dur_ns\":" << (s.endNs - s.startNs);
        for (const auto &[key, value] : s.counts)
            out << ",\"" << key << "\":" << value;
        out << "}\n";
    }
    return bool(out);
}

} // namespace e2e
