/**
 * @file
 * perfbench: the PhotonLoop benchmark program.  Normally started by
 * perfbench/run.py, which builds it; see perfbench/README.md.
 *
 *   perfbench --workload {dse_zoo,serve_warm,routed_churn}
 *             --seed N --seconds S --trace {0,1}
 *             [--self-test] [--git-sha SHA] [--source-digest D]
 *             [--work-dir DIR] [--results-dir DIR]
 *
 * Prints a human table, writes the run's full record as JSON under
 * --results-dir, and ends stdout with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * carrying the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1).  Exits 1 when any output check failed.
 *
 * --self-test corrupts one expected value before the run, and exits
 * 0 only if the correctness check then fires.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "api/json.hpp"
#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using pbench::Metric;
using ploop::JsonValue;

/** Hard wall-clock cap: the run must end well inside 180 s. */
constexpr unsigned kWatchdogSeconds = 170;

void
onAlarm(int)
{
    static const char msg[] = "perfbench: watchdog expired\n";
    ssize_t rc = ::write(2, msg, sizeof msg - 1);
    (void)rc;
    std::_Exit(4); // children die with us (PR_SET_PDEATHSIG)
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload {dse_zoo,serve_warm,"
                 "routed_churn} --seed N --seconds S --trace {0,1}\n"
                 "                 [--self-test] [--git-sha SHA] "
                 "[--source-digest D]\n"
                 "                 [--work-dir DIR] [--results-dir DIR]\n");
    return 2;
}

JsonValue
metricsJson(const std::vector<Metric> &ms, bool with_samples)
{
    JsonValue obj = JsonValue::object();
    for (const Metric &m : ms) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue::number(m.value));
        v.set("unit", JsonValue::string(m.unit));
        if (with_samples)
            v.set("samples", JsonValue::number(double(m.samples)));
        obj.set(m.name, std::move(v));
    }
    return obj;
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n", title);
    std::printf("  %-34s %16s  %-8s %9s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : ms)
        std::printf("  %-34s %16.6g  %-8s %9zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
}

} // namespace

int
main(int argc, char **argv)
{
    pbench::Options opt;
    std::string trace_arg, git_sha = "unknown", digest = "unknown";
    std::string results_dir = ".bench_build/results";
    opt.work_dir = ".bench_build/run";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            trace_arg = value();
        else if (a == "--self-test")
            opt.self_test = true;
        else if (a == "--git-sha")
            git_sha = value();
        else if (a == "--source-digest")
            digest = value();
        else if (a == "--work-dir")
            opt.work_dir = value();
        else if (a == "--results-dir")
            results_dir = value();
        else
            return usage();
    }
    if (trace_arg != "0" && trace_arg != "1")
        return usage();
    opt.trace = trace_arg == "1";
    if (!(opt.seconds > 0 && opt.seconds <= 60)) {
        std::fprintf(stderr, "--seconds must be in (0, 60]\n");
        return 2;
    }
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a '%s' build; "
                     "numbers are only comparable from Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGALRM, onAlarm);
    ::alarm(kWatchdogSeconds);

    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0) {
        std::fprintf(stderr, "perfbench: cannot locate own binary\n");
        return 2;
    }
    exe[n] = '\0';
    opt.bin_dir = std::string(exe).substr(0, std::string(exe).rfind('/'));
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    opt.request_threads = std::min(2u, nproc);
    opt.serve_threads = std::min(2u, nproc);
    ::mkdir(opt.work_dir.c_str(), 0755);

    pbench::Outcome out;
    try {
        if (opt.workload == "dse_zoo")
            out = pbench::runDseZoo(opt);
        else if (opt.workload == "serve_warm")
            out = pbench::runServeWarm(opt);
        else if (opt.workload == "routed_churn")
            out = pbench::runRoutedChurn(opt);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    if (out.attempted == 0)
        out.fail("no request completed");
    const bool correct = out.failed == 0;
    const double failed_ratio =
        out.attempted ? double(out.failed) / double(out.attempted) : 1.0;

    if (opt.self_test) {
        std::printf("self-test %s: corrupted expectation -> %llu of %llu "
                    "checks failed (%s)\n",
                    opt.workload.c_str(),
                    (unsigned long long)out.failed,
                    (unsigned long long)out.attempted,
                    correct ? "CHECK DID NOT FIRE" : "check fired");
        return correct ? 1 : 0;
    }

    out.add(out.named, "failed_ratio", "ratio", failed_ratio,
            std::size_t(out.attempted));
    for (const Metric &m : out.gated)
        if (m.name == "peak_rss_mb")
            out.named.push_back(m);
    if (opt.trace)
        pbench::completeLayers(out);

    std::vector<std::pair<std::string, std::string>> env = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"seconds", std::to_string(opt.seconds)},
        {"trace", opt.trace ? "1" : "0"},
        {"git_sha", git_sha},
        {"source_digest", digest},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"nproc", std::to_string(nproc)},
    };
    env.insert(env.end(), out.env.begin(), out.env.end());

    // Human table.
    std::printf("perfbench %s (seed %llu, %s run)\n", opt.workload.c_str(),
                (unsigned long long)opt.seed,
                opt.trace ? "traced" : "untraced");
    for (const auto &[k, v] : env)
        std::printf("  %-16s %s\n", k.c_str(), v.c_str());
    std::printf("  %-16s %s (%llu attempted, %llu failed)\n", "correct",
                correct ? "yes" : "NO", (unsigned long long)out.attempted,
                (unsigned long long)out.failed);
    for (const std::string &e : out.errors)
        std::printf("  error: %s\n", e.c_str());
    if (!opt.trace) {
        printMetrics("end-to-end (workload names)", out.named);
        printMetrics("end-to-end (BENCHMARK.json names)", out.gated);
    } else {
        printMetrics("per-layer", out.layers);
        std::printf("\nspans (benchmark spans 'bench.', program spans by "
                    "process: inproc./serve./router.)\n");
        std::printf("  %-40s %9s %12s %12s %12s\n", "span", "count",
                    "p50_us", "self_p50_us", "self_tot_ms");
        for (const auto &r : out.spans.table())
            std::printf("  %-40s %9zu %12.3f %12.3f %12.3f\n",
                        r.name.c_str(), r.count, r.p50_us, r.self_p50_us,
                        r.self_total_ms);
    }

    // Machine-readable record of this run.
    JsonValue rec = JsonValue::object();
    JsonValue envj = JsonValue::object();
    for (const auto &[k, v] : env)
        envj.set(k, JsonValue::string(v));
    rec.set("env", std::move(envj));
    rec.set("correct", JsonValue::boolean(correct));
    rec.set("attempted", JsonValue::number(double(out.attempted)));
    rec.set("failed", JsonValue::number(double(out.failed)));
    JsonValue errs = JsonValue::array();
    for (const std::string &e : out.errors)
        errs.push(JsonValue::string(e));
    rec.set("errors", std::move(errs));
    if (!opt.trace) {
        rec.set("end_to_end", metricsJson(out.gated, true));
        rec.set("workload_named", metricsJson(out.named, true));
    } else {
        rec.set("per_layer", metricsJson(out.layers, true));
        JsonValue spans = JsonValue::array();
        for (const auto &r : out.spans.table()) {
            JsonValue s = JsonValue::object();
            s.set("name", JsonValue::string(r.name));
            s.set("count", JsonValue::number(double(r.count)));
            s.set("p50_us", JsonValue::number(r.p50_us));
            s.set("self_p50_us", JsonValue::number(r.self_p50_us));
            s.set("self_total_ms", JsonValue::number(r.self_total_ms));
            spans.push(std::move(s));
        }
        rec.set("spans", std::move(spans));
    }
    ::mkdir(results_dir.c_str(), 0755);
    const std::string path = results_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream(path) << rec.serialize() << "\n";
    std::printf("\nrecord: %s\n", path.c_str());

    JsonValue line = JsonValue::object();
    line.set("correct", JsonValue::boolean(correct));
    line.set("attempted", JsonValue::number(double(out.attempted)));
    line.set("failed", JsonValue::number(double(out.failed)));
    line.set("metrics",
             metricsJson(opt.trace ? out.layers : out.gated, false));
    std::printf("%s\n", line.serialize().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
