/**
 * @file
 * hdcps_e2e: run one workload of the end-to-end benchmark and print
 * its result as one JSON object on the last line of standard output.
 *
 *   hdcps_e2e --workload road-sssp --seed 1 --seconds 30 --trace 0
 *             [--trace-out spans.jsonl]
 *
 * The exit code is 0 when the run finished, whether or not every
 * answer was correct; "correct", "attempted" and "failed" in the JSON
 * say how the checks went.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hdcps_e2e: " << why << "\n"
              << "usage: hdcps_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\nworkloads:";
    for (const e2e::WorkloadSpec &spec : e2e::workloadSpecs())
        std::cerr << " " << spec.name;
    std::cerr << "\n";
    std::exit(2);
}

uint64_t
number(const std::string &flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage("bad value for " + flag + ": " + text);
    return v;
}

/** Shortest text that reads back as the same double. */
std::string
exact(double v)
{
    char buf[32];
    for (int digits = 6; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options options;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = number(flag, value);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            options.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(options.seconds > 0))
                usage(std::string("bad value for --seconds: ") + value);
        } else if (flag == "--trace") {
            uint64_t t = number(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            options.trace = t == 1;
            haveTrace = true;
        } else if (flag == "--trace-out") {
            options.traceOut = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!e2e::findWorkload(options.workload))
        usage("unknown workload '" + options.workload + "'");
    if (!haveTrace)
        usage("--trace is required");

    e2e::Report report = e2e::runBenchmark(options);
    for (const std::string &note : report.notes)
        std::cout << "# " << note << "\n";
    std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
              << ", \"attempted\": " << report.tally.attempted
              << ", \"failed\": " << report.tally.failed
              << ", \"metrics\": {";
    const char *sep = "";
    for (const e2e::Metric &m : report.metrics) {
        std::cout << sep << "\"" << m.name << "\": {\"value\": "
                  << exact(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
