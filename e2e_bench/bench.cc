#include "bench.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "algos/relaxation.h"
#include "algos/sequential.h"
#include "core/hdcps.h"
#include "cps/pmod.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/executor_service.h"
#include "stats/summary.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/timer.h"
#include "trace.h"

namespace e2e {

using namespace hdcps;

namespace {

/** The map every seed queries; only the sources come from the seed. */
constexpr uint64_t kGraphSeed = 1;
/** Jobs the service client keeps outstanding (4 waiting front-ends). */
constexpr unsigned kOutstanding = 4;
/** The design under test. */
constexpr const char *kDesign = "hdcps-sw";
/** Parts of the measured window: a batch window is cut into 5 time
 *  slices, a svc-road window into 16 services (see runBenchmark).
 *  answer_ms_p50 and peak_rss_mb are medians over the parts, so a burst
 *  of host noise moves one part rather than the whole run. */
constexpr size_t kSlices = 5;
constexpr size_t kServiceStarts = 16;
/** Sources each seed draws. */
constexpr size_t kSources = 32;
/** Set-up samples timed; setup_s is their minimum. */
constexpr unsigned kSetupSamples = 5;
/** Shortest set-up sample: a sample repeats the set-up until it lasts
 *  this long, so a short set-up is not one scheduling quantum. */
constexpr double kMinSetupSampleS = 0.4;

const std::vector<WorkloadSpec> kWorkloads = {
    {"road-sssp", "sssp", "usa", 8, false},
    {"dense-bfs", "bfs", "cage", 16, false},
    {"svc-road", "sssp", "usa", 4, true},
};

const std::vector<Metric> kEndToEnd = {
    {"answer_ms_p50", 0, "ms"},
    {"answers_per_s", 0, "1/s"},
    {"setup_s", 0, "s"},
    {"peak_rss_mb", 0, "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"graph.gen_s", 0, "s"},
    {"algos.oracle_ms_p50", 0, "ms"},
    {"algos.process_ns_per_task", 0, "ns"},
    {"algos.process_share", 0, "ratio"},
    {"algos.check_ms_p50", 0, "ms"},
    {"cps.push_ns_per_call", 0, "ns"},
    {"cps.pop_ns_per_call", 0, "ns"},
    {"cps.pop_empty_ratio", 0, "ratio"},
    {"core.work_ratio", 0, "ratio"},
    {"core.work_ratio_p90", 0, "ratio"},
    {"core.remote_share", 0, "ratio"},
    {"core.srq_spill_share", 0, "ratio"},
    {"core.avg_drift", 0, "priority"},
    {"core.bag_task_share", 0, "ratio"},
    {"core.construct_us_p50", 0, "us"},
    {"runtime.answer_ms_p90", 0, "ms"},
    {"runtime.traced_answers", 0, "count"},
    {"runtime.answer_rss_mb", 0, "MB"},
    {"runtime.first_task_us_p50", 0, "us"},
    {"runtime.quiesce_us_p50", 0, "us"},
    {"runtime.submit_us_p50", 0, "us"},
    {"runtime.dispatch_wait_ms_p50", 0, "ms"},
    {"runtime.finish_wait_ms_p50", 0, "ms"},
    {"runtime.service_tax", 0, "ratio"},
    {"cps.pmod_ms_p50", 0, "ms"},
    {"cps.hdcps_mq_ms_p50", 0, "ms"},
    {"cps.hdcps_sw_1t_ms_p50", 0, "ms"},
    {"runtime.cold_answer_ms", 0, "ms"},
    {"core.cold_work_ratio", 0, "ratio"},
    {"obs.trace_overhead_pct", 0, "%"},
    {"obs.metrics_overhead_pct", 0, "%"},
    {"host.steal_pct", 0, "%"},
};

/** How an answer is instrumented (see bench.h). */
enum class Mode { Plain, Metrics, Traced };

/** One answer as the client saw it. Layer fields are set for traced
 *  answers only. */
struct Answer
{
    Mode mode = Mode::Plain;
    double ms = 0.0; ///< time to the answer, check excluded
    bool ok = false;
    double checkMs = 0.0;
    double workRatio = 0.0;
    double drift = 0.0; ///< HD-CPS drift-tracker average
    double constructUs = 0.0;
    double firstTaskUs = 0.0;
    double quiesceUs = 0.0;
    double submitUs = 0.0;
    double dispatchWaitMs = 0.0;
    double finishWaitMs = 0.0;
    uint64_t runNs = 0; ///< run() wall (batch answers)
    uint64_t processCalls = 0;
    uint64_t processTimed = 0;
    uint64_t processNs = 0; ///< over the timed calls
    OpTotals ops;
};

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

template <typename F>
std::vector<double>
field(const std::vector<Answer> &answers, F get)
{
    std::vector<double> out;
    out.reserve(answers.size());
    for (const Answer &a : answers)
        out.push_back(get(a));
    return out;
}

std::vector<Answer>
withMode(const std::vector<Answer> &answers, Mode mode)
{
    std::vector<Answer> out;
    for (const Answer &a : answers)
        if (a.mode == mode)
            out.push_back(a);
    return out;
}

double
msOf(const std::vector<Answer> &answers)
{
    return median(field(answers, [](const Answer &a) { return a.ms; }));
}

double
seconds(uint64_t fromNs)
{
    return double(nowNs() - fromNs) / 1e9;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &design, unsigned workers)
{
    if (design == "hdcps-sw")
        return std::make_unique<HdCpsScheduler>(
            workers, HdCpsScheduler::configSw());
    if (design == "hdcps-mq")
        return std::make_unique<HdCpsMqScheduler>(
            workers, HdCpsMqScheduler::configSw());
    if (design == "pmod")
        return std::make_unique<PmodScheduler>(workers);
    hdcps_fatal("unknown design '%s'", design.c_str());
}

/** HD-CPS's own drift-tracker average (0 for other designs). */
double
designDrift(const Scheduler &sched)
{
    if (auto *hd = dynamic_cast<const HdCpsScheduler *>(&sched))
        return hd->averageDrift();
    return 0.0;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Cumulative CPU jiffies and the steal share of them. */
struct CpuTimes
{
    uint64_t total = 0;
    uint64_t steal = 0;
};

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    if (!(in >> cpu) || cpu != "cpu")
        return t;
    for (int field = 0; field < 8; ++field) {
        uint64_t v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealPct(const CpuTimes &from, const CpuTimes &to)
{
    uint64_t total = to.total - from.total;
    return total == 0 ? 0.0
                      : 100.0 * double(to.steal - from.steal) /
                            double(total);
}

/** A "Vm...:" line of /proc/self/status, in MB. */
double
statusMb(const std::string &key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
    hdcps_fatal("no %s in /proc/self/status", key.c_str());
}

/**
 * Give back the pages that freed memory still holds, then restart the
 * process's resident high-water mark (VmHWM) from its current RSS;
 * Linux has done the latter on "5" to clear_refs since 4.0. Without
 * the trim, what one part of a run left behind in malloc's arenas
 * would set the next part's peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5" << std::flush;
    hdcps_check(bool(out), "cannot reset the peak RSS");
}

/** Counters the traced answers' registry accumulated. */
std::map<std::string, uint64_t>
counterTotals(const MetricsRegistry &registry)
{
    std::map<std::string, uint64_t> out;
    for (const MetricsSnapshot::Counter &c : registry.snapshot().counters)
        out[c.name] = c.total;
    return out;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** A source with its oracle answer. */
Source
makeSource(const Graph &g, const WorkloadSpec &spec, NodeId node,
           double *oracleMs)
{
    Source src;
    src.node = node;
    uint64_t o0 = nowNs();
    SeqPathResult ref = std::string(spec.kernel) == "bfs"
                            ? bfsLevels(g, node)
                            : dijkstra(g, node);
    *oracleMs = double(nowNs() - o0) / 1e6;
    src.oracle = std::move(ref.dist);
    src.seqTasks = ref.tasksProcessed;
    return src;
}

/** State shared by every answer of one benchmark run. */
struct Env
{
    const WorkloadSpec &spec;
    Inputs &in;
    unsigned workers;
    Tally tally;
    SpanLog spans;
    uint64_t lastAnswerId = 0;
    size_t nextSource = 0;

    Source &
    takeSource()
    {
        return in.sources[nextSource++ % in.sources.size()];
    }

    /** A new workload for one answer from `src`. Answers build their
     *  own, as a caller would per query, so the process holds the
     *  labels of the answers in flight only. */
    std::unique_ptr<Workload>
    workloadFor(const Source &src) const
    {
        return makeWorkload(spec.kernel, in.graph, src.node);
    }

    /** Check an answer outside the clock; counts it in the tally. */
    bool
    check(bool produced, const Workload &w, const Source &src,
          double *checkMs)
    {
        uint64_t c0 = nowNs();
        std::string why;
        bool ok = produced && labelsMatch(w, src.oracle, &why);
        *checkMs = double(nowNs() - c0) / 1e6;
        tally.count(ok);
        if (!ok && tally.failed <= 3) {
            std::cerr << spec.name << ": answer from source " << src.node
                      << " failed: " << (produced ? why : "no result")
                      << "\n";
        }
        return ok;
    }
};

/**
 * One batch answer: construct a scheduler, run() a workload from the
 * source on it, check the labels. The clock runs from construction to
 * the return of run().
 */
Answer
batchAnswer(Env &env, const Source &src, const std::string &design,
            unsigned threads, Mode mode, MetricsRegistry *registry)
{
    std::unique_ptr<Workload> work = env.workloadFor(src);
    Workload &w = *work;
    const std::vector<Task> initial = w.initialTasks();
    const bool traced = mode == Mode::Traced;
    ProcessProbe probe(threads);
    ProcessFn process = workloadProcessFn(w);
    if (traced) {
        process = [&probe, &w](unsigned tid, const Task &task,
                               std::vector<Task> &children) {
            probe.around(tid, [&] { w.process(task, children); });
        };
    }
    RunOptions options;
    options.numThreads = threads;
    options.recordBreakdown = false;
    options.metrics = mode == Mode::Plain ? nullptr : registry;

    uint64_t t0 = nowNs();
    std::unique_ptr<Scheduler> sched = makeScheduler(design, threads);
    uint64_t t1 = nowNs();
    std::unique_ptr<TimedScheduler> timed;
    if (traced)
        timed = std::make_unique<TimedScheduler>(*sched);
    uint64_t t2 = nowNs();
    RunResult r = run(timed ? *timed : *sched, initial, process, options);
    uint64_t t3 = nowNs();

    Answer a;
    a.mode = mode;
    a.ms = double(t3 - t0) / 1e6;
    uint64_t c0 = nowNs();
    a.ok = env.check(r.ok(), w, src, &a.checkMs);
    uint64_t c1 = nowNs();
    a.workRatio = ratio(double(r.total.tasksProcessed), double(src.seqTasks));
    if (!traced)
        return a;

    a.constructUs = double(t1 - t0) / 1e3;
    a.drift = designDrift(*sched);
    a.runNs = t3 - t2;
    uint64_t first = probe.firstStartNs() ? probe.firstStartNs() : t2;
    uint64_t last = std::max(probe.lastEndNs(), first);
    a.firstTaskUs = double(first - t2) / 1e3;
    a.quiesceUs = double(t3 - std::min(last, t3)) / 1e3;
    a.processCalls = probe.calls();
    a.processTimed = probe.timed();
    a.processNs = probe.ns();
    a.ops = timed->totals();

    uint64_t id = ++env.lastAnswerId;
    env.spans.addRoot(id, t0, c1,
                      {{"tasks", r.total.tasksProcessed},
                       {"seq_tasks", src.seqTasks},
                       {"process_calls", a.processCalls},
                       {"process_timed", a.processTimed},
                       {"process_ns", a.processNs},
                       {"push_calls", a.ops.pushCalls},
                       {"push_tasks", a.ops.pushTasks},
                       {"push_timed", a.ops.pushTimed},
                       {"push_ns", a.ops.pushNs},
                       {"pop_calls", a.ops.popCalls},
                       {"pop_empty", a.ops.popEmpty},
                       {"pop_timed", a.ops.popTimed},
                       {"pop_ns", a.ops.popNs}});
    env.spans.add(id, "construct", "answer", t0, t1);
    env.spans.add(id, "run", "answer", t2, t3);
    env.spans.add(id, "first_task", "run", t2, first);
    env.spans.add(id, "quiesce", "run", std::min(last, t3), t3);
    env.spans.add(id, "check", "answer", c0, c1);
    return a;
}

/** Batch answers back to back for `secs` (and at least `minAnswers`);
 *  `modeOf(i)` instruments the i-th. */
std::vector<Answer>
batchLoop(Env &env, const std::string &design, unsigned threads,
          double secs, size_t minAnswers,
          const std::function<Mode(size_t)> &modeOf,
          const std::function<MetricsRegistry *(Mode)> &registryOf)
{
    std::vector<Answer> answers;
    uint64_t start = nowNs();
    while (seconds(start) < secs || answers.size() < minAnswers) {
        Mode mode = modeOf(answers.size());
        answers.push_back(
            batchAnswer(env, env.takeSource(), design, threads, mode,
                        registryOf(mode)));
    }
    return answers;
}

std::vector<Answer>
plainBatch(Env &env, const std::string &design, unsigned threads,
           double secs, size_t minAnswers)
{
    return batchLoop(
        env, design, threads, secs, minAnswers,
        [](size_t) { return Mode::Plain; },
        [](Mode) { return static_cast<MetricsRegistry *>(nullptr); });
}

/** What one service window measured. */
struct ServiceWindow
{
    std::vector<Answer> answers; ///< jobs observed done in the window
    double windowS = 0.0;
    OpTotals ops;                ///< traced windows only
    std::map<std::string, uint64_t> counters; ///< registry windows only
    double drift = 0.0;
};

/**
 * A closed loop against one long-lived ExecutorService: keep
 * `outstanding` jobs in flight, wait for the oldest, check it, submit
 * the next. Jobs observed done during the warm-up are checked but not
 * recorded; jobs still in flight at the end are drained and checked.
 */
ServiceWindow
serviceLoop(Env &env, Mode mode, unsigned outstanding, double warmS,
            double secs)
{
    hdcps_check(env.in.sources.size() > outstanding,
                "need more sources than outstanding jobs");
    const bool traced = mode == Mode::Traced;
    std::unique_ptr<Scheduler> inner = makeScheduler(kDesign, env.workers);
    std::unique_ptr<TimedScheduler> timed;
    if (traced)
        timed = std::make_unique<TimedScheduler>(*inner);
    std::unique_ptr<MetricsRegistry> registry;
    if (mode != Mode::Plain)
        registry = std::make_unique<MetricsRegistry>(env.workers);

    ServiceOptions options;
    options.numThreads = env.workers;
    options.metrics = registry.get();
    options.tenants[1].weight = 2.0;
    options.tenants[2].weight = 1.0;
    ExecutorService svc(timed ? *timed : *inner, options);

    struct Pending
    {
        Source *src = nullptr;
        std::unique_ptr<Workload> work;
        JobHandle handle;
        uint64_t submitStart = 0;
        uint64_t submitEnd = 0;
        std::unique_ptr<ProcessProbe> probe;
    };
    std::deque<Pending> pending;
    uint64_t submitted = 0;

    auto submit = [&] {
        Pending p;
        p.src = &env.takeSource();
        p.work = env.workloadFor(*p.src);
        Workload &w = *p.work;
        JobSpec spec;
        spec.name = std::string(env.spec.name) + "#" +
                    std::to_string(submitted);
        spec.tenant = TenantId(1 + submitted % 2);
        spec.initial = w.initialTasks();
        spec.process = workloadProcessFn(w);
        if (traced) {
            p.probe = std::make_unique<ProcessProbe>(env.workers);
            spec.process = [probe = p.probe.get(), &w](
                               unsigned tid, const Task &task,
                               std::vector<Task> &children) {
                probe->around(tid, [&] { w.process(task, children); });
            };
        }
        ++submitted;
        p.submitStart = nowNs();
        p.handle = svc.submit(std::move(spec));
        p.submitEnd = nowNs();
        pending.push_back(std::move(p));
    };

    auto finish = [&](Pending &p) {
        Answer a;
        a.mode = mode;
        JobState state = p.handle.wait();
        a.ms = p.handle.latencyMs();
        bool produced =
            state == JobState::Completed && p.handle.poisonedTasks() == 0;
        uint64_t c0 = nowNs();
        a.ok = env.check(produced, *p.work, *p.src, &a.checkMs);
        uint64_t c1 = nowNs();
        a.workRatio = ratio(double(p.handle.tasksCompleted()),
                            double(p.src->seqTasks));
        if (!traced)
            return a;
        const ProcessProbe &probe = *p.probe;
        uint64_t done = p.submitStart + uint64_t(a.ms * 1e6);
        uint64_t first = probe.firstStartNs() ? probe.firstStartNs()
                                              : p.submitEnd;
        first = std::max(first, p.submitEnd);
        uint64_t last = std::min(std::max(probe.lastEndNs(), first), done);
        a.submitUs = double(p.submitEnd - p.submitStart) / 1e3;
        a.dispatchWaitMs = double(first - p.submitEnd) / 1e6;
        a.finishWaitMs = double(done - last) / 1e6;
        a.processCalls = probe.calls();
        a.processTimed = probe.timed();
        a.processNs = probe.ns();

        uint64_t id = ++env.lastAnswerId;
        env.spans.addRoot(id, p.submitStart, c1,
                          {{"tasks", p.handle.tasksCompleted()},
                           {"seq_tasks", p.src->seqTasks},
                           {"process_calls", a.processCalls},
                           {"process_timed", a.processTimed},
                           {"process_ns", a.processNs}});
        env.spans.add(id, "submit", "answer", p.submitStart, p.submitEnd);
        env.spans.add(id, "dispatch_wait", "answer", p.submitEnd, first);
        env.spans.add(id, "run", "answer", first, last);
        env.spans.add(id, "finish_wait", "answer", last, done);
        env.spans.add(id, "check", "answer", c0, c1);
        return a;
    };

    while (pending.size() < outstanding)
        submit();
    ServiceWindow window;
    uint64_t warmStart = nowNs();
    while (seconds(warmStart) < warmS) {
        finish(pending.front());
        pending.pop_front();
        submit();
    }

    OpTotals opsBefore = timed ? timed->totals() : OpTotals{};
    std::map<std::string, uint64_t> countersBefore;
    if (registry)
        countersBefore = counterTotals(*registry);
    uint64_t start = nowNs();
    while (seconds(start) < secs || window.answers.empty()) {
        window.answers.push_back(finish(pending.front()));
        pending.pop_front();
        submit();
    }
    window.windowS = seconds(start);
    if (timed)
        window.ops = timed->totals() - opsBefore;
    if (registry) {
        for (const auto &[name, total] : counterTotals(*registry))
            window.counters[name] = total - countersBefore[name];
    }

    for (Pending &p : pending)
        finish(p);
    svc.shutdown();
    // The drift tracker is only safe to read once the workers stopped.
    window.drift = designDrift(*inner);
    return window;
}

/** Reference designs on the same sources (ROADMAP targets). */
void
addReferences(Env &env, std::map<std::string, double> &m, double secs)
{
    const double each = secs / 3.0;
    m["cps.pmod_ms_p50"] = msOf(plainBatch(env, "pmod", env.workers, each, 3));
    m["cps.hdcps_mq_ms_p50"] =
        msOf(plainBatch(env, "hdcps-mq", env.workers, each, 3));
    m["cps.hdcps_sw_1t_ms_p50"] = msOf(plainBatch(env, kDesign, 1, each, 3));
}

/** The per-task layers over the traced answers: the ProcessFn, the
 *  scheduler's push/pop, wasted work and the HD-CPS routing shares.
 *  `wallNs` is the time the workers were there to do that work. */
void
addTaskLayers(std::map<std::string, double> &m, unsigned workers,
              const std::vector<Answer> &traced, const OpTotals &ops,
              double wallNs, std::map<std::string, uint64_t> counters)
{
    double calls = 0, timed = 0, ns = 0;
    for (const Answer &a : traced) {
        calls += double(a.processCalls);
        timed += double(a.processTimed);
        ns += double(a.processNs);
    }
    const double perTask = ratio(ns, timed);
    m["algos.process_ns_per_task"] = perTask;
    m["algos.process_share"] = ratio(perTask * calls, workers * wallNs);
    m["cps.push_ns_per_call"] =
        ratio(double(ops.pushNs), double(ops.pushTimed));
    m["cps.pop_ns_per_call"] = ratio(double(ops.popNs), double(ops.popTimed));
    m["cps.pop_empty_ratio"] =
        ratio(double(ops.popEmpty), double(ops.popCalls));
    std::vector<double> work =
        field(traced, [](const Answer &a) { return a.workRatio; });
    m["core.work_ratio"] = mean(work);
    m["core.work_ratio_p90"] = percentile(work, 0.9);
    double local = double(counters["local_enqueues"]);
    double remote = double(counters["remote_enqueues"]);
    m["core.remote_share"] = ratio(remote, local + remote);
    m["core.srq_spill_share"] =
        ratio(double(counters["overflow_pushes"]), remote);
    m["core.bag_task_share"] =
        ratio(double(counters["tasks_in_bags"]), double(ops.pushTasks));
    m["runtime.traced_answers"] = double(traced.size());
    m["algos.check_ms_p50"] =
        median(field(traced, [](const Answer &a) { return a.checkMs; }));
}

/** The untraced tail and what the registry and the tracing cost. */
void
addOverheads(std::map<std::string, double> &m,
             const std::vector<Answer> &plain,
             const std::vector<Answer> &metricsOnly,
             const std::vector<Answer> &traced)
{
    auto overheadPct = [&plain](const std::vector<Answer> &answers) {
        return 100.0 * (ratio(msOf(answers), msOf(plain)) - 1.0);
    };
    m["runtime.answer_ms_p90"] =
        percentile(field(plain, [](const Answer &a) { return a.ms; }), 0.9);
    m["obs.trace_overhead_pct"] = overheadPct(traced);
    m["obs.metrics_overhead_pct"] = overheadPct(metricsOnly);
}

/** Per-layer metrics of a batch workload (traced run). Plain,
 *  registry-only and traced answers alternate, so host drift hits all
 *  three alike. */
std::map<std::string, double>
traceBatch(Env &env, double warmS, double secs)
{
    plainBatch(env, kDesign, env.workers, warmS, env.in.sources.size());
    MetricsRegistry metricsOnly(env.workers);
    MetricsRegistry tracedRegistry(env.workers);
    const Mode cycle[] = {Mode::Plain, Mode::Metrics, Mode::Traced};
    std::vector<Answer> all = batchLoop(
        env, kDesign, env.workers, 0.8 * secs, 3 * 3,
        [&cycle](size_t i) { return cycle[i % 3]; },
        [&](Mode mode) {
            return mode == Mode::Traced ? &tracedRegistry : &metricsOnly;
        });
    std::vector<Answer> traced = withMode(all, Mode::Traced);

    std::map<std::string, double> m;
    OpTotals ops;
    double runNs = 0;
    for (const Answer &a : traced) {
        ops += a.ops;
        runNs += double(a.runNs);
    }
    addTaskLayers(m, env.workers, traced, ops, runNs,
                  counterTotals(tracedRegistry));
    addOverheads(m, withMode(all, Mode::Plain), withMode(all, Mode::Metrics),
                 traced);
    m["core.avg_drift"] =
        mean(field(traced, [](const Answer &a) { return a.drift; }));
    m["core.construct_us_p50"] =
        median(field(traced, [](const Answer &a) { return a.constructUs; }));
    m["runtime.first_task_us_p50"] =
        median(field(traced, [](const Answer &a) { return a.firstTaskUs; }));
    m["runtime.quiesce_us_p50"] =
        median(field(traced, [](const Answer &a) { return a.quiesceUs; }));
    addReferences(env, m, 0.2 * secs);
    return m;
}

/** Per-layer metrics of the service workload (traced run). The modes
 *  need a service each, so they run one after another. */
std::map<std::string, double>
traceService(Env &env, double warmS, double secs)
{
    ServiceWindow plain = serviceLoop(env, Mode::Plain, kOutstanding,
                                      warmS, 0.25 * secs);
    ServiceWindow metrics = serviceLoop(env, Mode::Metrics, kOutstanding,
                                        warmS, 0.1 * secs);
    ServiceWindow traced = serviceLoop(env, Mode::Traced, kOutstanding,
                                       warmS, 0.25 * secs);
    // The service tax: the same jobs one at a time, through the
    // service and through back-to-back run().
    ServiceWindow single =
        serviceLoop(env, Mode::Plain, 1, warmS, 0.1 * secs);
    std::vector<Answer> direct =
        plainBatch(env, kDesign, env.workers, 0.1 * secs, 3);

    std::map<std::string, double> m;
    const std::vector<Answer> &t = traced.answers;
    addTaskLayers(m, env.workers, t, traced.ops, traced.windowS * 1e9,
                  traced.counters);
    addOverheads(m, plain.answers, metrics.answers, t);
    m["core.avg_drift"] = traced.drift;
    m["runtime.submit_us_p50"] =
        median(field(t, [](const Answer &a) { return a.submitUs; }));
    m["runtime.dispatch_wait_ms_p50"] =
        median(field(t, [](const Answer &a) { return a.dispatchWaitMs; }));
    m["runtime.finish_wait_ms_p50"] =
        median(field(t, [](const Answer &a) { return a.finishWaitMs; }));
    m["runtime.service_tax"] = ratio(msOf(single.answers), msOf(direct));
    addReferences(env, m, 0.2 * secs);
    return m;
}

std::string
formatNote(const std::string &key, double value)
{
    std::ostringstream out;
    out << key << " " << value;
    return out.str();
}

std::string
formatList(const std::string &key, const std::vector<double> &values)
{
    std::ostringstream out;
    out << key;
    for (double v : values)
        out << " " << v;
    return out.str();
}

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

const std::vector<Metric> &
endToEndMetrics()
{
    return kEndToEnd;
}

const std::vector<Metric> &
perLayerMetrics()
{
    return kPerLayer;
}

std::unique_ptr<Inputs>
makeInputs(const WorkloadSpec &spec, uint64_t seed, size_t numSources)
{
    auto in = std::make_unique<Inputs>();
    uint64_t g0 = nowNs();
    in->graph = makePaperInput(spec.input, spec.scale, kGraphSeed);
    in->genS = double(nowNs() - g0) / 1e9;

    const NodeId n = in->graph.numNodes();
    Rng rng(mix64(seed ^ 0x736f75726365ULL)); // "source"
    const size_t maxDraws = 64 * numSources;
    for (size_t draw = 0; in->sources.size() < numSources; ++draw) {
        hdcps_check(draw < maxDraws,
                    "%s: too few sources reach half the graph",
                    spec.name);
        double ms = 0;
        Source src = makeSource(in->graph, spec, NodeId(rng.below(n)), &ms);
        in->oracleMs.push_back(ms);
        size_t reached = size_t(std::count_if(
            src.oracle.begin(), src.oracle.end(),
            [](uint64_t d) { return d != unreachableDist; }));
        if (2 * reached >= n)
            in->sources.push_back(std::move(src));
    }
    return in;
}

bool
labelsMatch(const Workload &workload, const std::vector<uint64_t> &oracle,
            std::string *whyNot)
{
    const auto *labels = dynamic_cast<const RelaxationBase *>(&workload);
    hdcps_check(labels != nullptr, "check needs an sssp/bfs workload");
    const NodeId n = workload.graph().numNodes();
    if (oracle.size() != n) {
        if (whyNot)
            *whyNot = "oracle has " + std::to_string(oracle.size()) +
                      " labels for " + std::to_string(n) + " nodes";
        return false;
    }
    for (NodeId v = 0; v < n; ++v) {
        if (labels->distance(v) != oracle[v]) {
            if (whyNot)
                *whyNot = "node " + std::to_string(v) + " got " +
                          std::to_string(labels->distance(v)) +
                          " expected " + std::to_string(oracle[v]);
            return false;
        }
    }
    return true;
}

OpTotals &
OpTotals::operator+=(const OpTotals &o)
{
    pushCalls += o.pushCalls;
    pushTasks += o.pushTasks;
    pushTimed += o.pushTimed;
    pushNs += o.pushNs;
    popCalls += o.popCalls;
    popEmpty += o.popEmpty;
    popTimed += o.popTimed;
    popNs += o.popNs;
    return *this;
}

OpTotals
OpTotals::operator-(const OpTotals &o) const
{
    OpTotals d;
    d.pushCalls = pushCalls - o.pushCalls;
    d.pushTasks = pushTasks - o.pushTasks;
    d.pushTimed = pushTimed - o.pushTimed;
    d.pushNs = pushNs - o.pushNs;
    d.popCalls = popCalls - o.popCalls;
    d.popEmpty = popEmpty - o.popEmpty;
    d.popTimed = popTimed - o.popTimed;
    d.popNs = popNs - o.popNs;
    return d;
}

Report
runBenchmark(const Options &options)
{
    const WorkloadSpec *spec = findWorkload(options.workload);
    hdcps_check(spec != nullptr, "unknown workload '%s'",
                options.workload.c_str());
    const unsigned cpus = usableCpus();
    const unsigned workers = std::min(4u, cpus);

    // Set-up, timed in several samples of at least kMinSetupSampleS;
    // a sample's value is its time per set-up. The last inputs are kept.
    std::vector<double> setupS, genS;
    std::unique_ptr<Inputs> in;
    for (unsigned sample = 0; sample < kSetupSamples; ++sample) {
        uint64_t t0 = nowNs();
        unsigned reps = 0;
        do {
            in.reset();
            in = makeInputs(*spec, options.seed, kSources);
            genS.push_back(in->genS);
            ++reps;
        } while (seconds(t0) < kMinSetupSampleS);
        setupS.push_back(seconds(t0) / reps);
    }

    Env env{*spec, *in, workers, {}, {}, 0, 0};
    Report report;
    report.notes.push_back(formatList("setup_s_each", setupS));
    report.notes.push_back(
        formatNote("setup_peak_rss_mb", statusMb("VmHWM:")));
    report.notes.push_back(formatNote("workers", workers));
    report.notes.push_back(formatNote("cpus", cpus));
    report.notes.push_back(formatNote("nodes", in->graph.numNodes()));
    report.notes.push_back(formatNote("sources", in->sources.size()));
    report.notes.push_back(formatNote("oracles", in->oracleMs.size()));

    // Warm-up answers run until caches and lazy set-up have settled:
    // a tenth of the window, within [0.5 s, 2 s].
    const double warmS = std::clamp(0.1 * options.seconds, 0.5, 2.0);
    // The answers start from the inputs alone; the peak RSS measured
    // from here on is the answers', not set-up's.
    resetPeakRss();
    const double inputsRssMb = statusMb("VmRSS:");
    report.notes.push_back(formatNote("inputs_rss_mb", inputsRssMb));
    CpuTimes cpuBefore = readCpuTimes();
    std::map<std::string, double> values;
    if (!options.trace) {
        std::vector<double> p50, peakMb;
        size_t answers = 0;
        double answerS = 0.0; ///< batch: answer time; service: window
        if (spec->service) {
            // A service's speed is set when it starts and holds for its
            // life: services started one after another differ by up to
            // ~30%, time slices of one service by ~5%. So each part
            // gets a service of its own. A service answers kOutstanding
            // jobs at once, so answers_per_s is jobs completed per second
            // of the services' windows.
            for (size_t k = 0; k < kServiceStarts; ++k) {
                resetPeakRss();
                ServiceWindow w = serviceLoop(
                    env, Mode::Plain, kOutstanding, 0.2,
                    options.seconds / double(kServiceStarts));
                peakMb.push_back(statusMb("VmHWM:"));
                answers += w.answers.size();
                answerS += w.windowS;
                p50.push_back(msOf(w.answers));
            }
        } else {
            plainBatch(env, kDesign, workers, warmS, in->sources.size());
            for (size_t k = 0; k < kSlices; ++k) {
                resetPeakRss();
                std::vector<Answer> slice = plainBatch(
                    env, kDesign, workers, options.seconds / kSlices, 1);
                peakMb.push_back(statusMb("VmHWM:"));
                answers += slice.size();
                for (const Answer &a : slice)
                    answerS += a.ms / 1e3;
                p50.push_back(msOf(slice));
            }
        }
        values["answer_ms_p50"] = median(p50);
        // Over the whole window, so that every slow answer counts.
        values["answers_per_s"] = double(answers) / answerS;
        values["setup_s"] = *std::min_element(setupS.begin(), setupS.end());
        values["peak_rss_mb"] = median(peakMb);
        report.notes.push_back(formatList("part_answer_ms_p50", p50));
        report.notes.push_back(formatList("part_peak_rss_mb", peakMb));
        report.notes.push_back(formatNote("answers", answers));
    } else {
        // The process's first run(), before anything warmed up. One-shot
        // callers (the CLI) pay this on every answer, and HD-CPS:SW's
        // wasted work can collapse here (4-7x the sequential tasks on
        // road-sssp) while warmed-up answers stay near 1.1x.
        Answer cold = batchAnswer(env, env.takeSource(), kDesign, workers,
                                  Mode::Plain, nullptr);
        values = spec->service ? traceService(env, warmS, options.seconds)
                               : traceBatch(env, warmS, options.seconds);
        values["runtime.cold_answer_ms"] = cold.ms;
        values["core.cold_work_ratio"] = cold.workRatio;
        values["runtime.answer_rss_mb"] = statusMb("VmHWM:") - inputsRssMb;
        values["graph.gen_s"] = median(genS);
        values["algos.oracle_ms_p50"] = median(in->oracleMs);
    }
    double steal = stealPct(cpuBefore, readCpuTimes());
    report.notes.push_back(formatNote("steal_pct", steal));
    if (options.trace)
        values["host.steal_pct"] = steal;

    const std::vector<Metric> &names = options.trace ? kPerLayer : kEndToEnd;
    for (const auto &[name, value] : values) {
        (void)value;
        hdcps_check(std::any_of(names.begin(), names.end(),
                                [&](const Metric &m) {
                                    return m.name == name;
                                }),
                    "metric '%s' is not reported", name.c_str());
    }
    for (Metric metric : names) {
        // Layers a workload's answers never pass through read 0
        // (README.md lists which).
        auto it = values.find(metric.name);
        metric.value = it == values.end() ? 0.0 : it->second;
        hdcps_check(std::isfinite(metric.value), "metric '%s' is not finite",
                    metric.name.c_str());
        report.metrics.push_back(metric);
    }
    report.tally = env.tally;
    if (options.trace && !options.traceOut.empty()) {
        hdcps_check(env.spans.write(options.traceOut),
                    "cannot write spans to '%s'",
                    options.traceOut.c_str());
        report.notes.push_back("spans " + std::to_string(env.spans.size()) +
                               " " + options.traceOut);
    }
    return report;
}

} // namespace e2e
