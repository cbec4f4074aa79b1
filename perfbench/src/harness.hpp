/**
 * @file
 * Shared pieces of the benchmark program: options, the metric and
 * outcome records every workload fills, quantiles over the program's
 * own samples, the in-memory span log, and child-process handling.
 *
 * Everything here measures PhotonLoop from the outside: spans are
 * recorded around calls into the library's public functions, and
 * the program's own span trees (a Trace passed as a SpanRef, or the
 * protocol's `"trace": true` response key) are grafted underneath.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "api/json.hpp"

namespace pbench {

inline std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64: derives independent, reproducible seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Linear-interpolated quantile (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** A sample stamped with when it started (s from window start). */
struct Timed
{
    double t;
    double v;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool self_test = false;
    std::string bin_dir;  ///< Where ploop_serve / ploop_router live.
    std::string work_dir; ///< Scratch for port files (inside checkout).
    unsigned request_threads = 2; ///< dse_zoo options.threads.
    unsigned serve_threads = 2;   ///< serve_warm PLOOP_THREADS.
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::size_t samples = 0;
};

/** Interned-name span log, filled by the workload thread. */
class SpanLog
{
  public:
    static constexpr int kNone = -1;

    int begin(const std::string &name, int parent = kNone);
    void end(int id);

    /** Set a span's interval after the fact (a round trip timed
     *  before its span was opened). */
    void setInterval(int id, std::uint64_t start_ns, std::uint64_t end_ns);

    /** Graft a program span tree (JSON with name/start_us/dur_us/
     *  children) under @p parent, which must already be closed.  The
     *  tree's root is centred inside the parent: the two clocks are
     *  not aligned, and only coverage matters for self time.  Span
     *  names get @p prefix; below a router's "upstream_wait" span
     *  (the worker's stitched subtree) they get @p nested_prefix. */
    void graft(const ploop::JsonValue &tree, int parent,
               const std::string &prefix,
               const std::string &nested_prefix = std::string());

    struct Row
    {
        std::string name;
        std::size_t count;
        double p50_us;
        double self_p50_us;
        double self_total_ms;
    };

    /** Per span name: count, p50 duration, p50 and total self time
     *  (duration minus the union of its children's intervals). */
    std::vector<Row> table() const;

  private:
    struct Span
    {
        std::uint32_t name;
        std::int32_t parent;
        std::uint64_t start_ns;
        std::uint64_t dur_ns;
    };

    std::uint32_t intern(const std::string &name);
    void graftNode(const ploop::JsonValue &node, int parent,
                   std::uint64_t origin_ns, const std::string &prefix,
                   const std::string &nested_prefix);

    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
};

/** What one workload run produced. */
struct Outcome
{
    std::vector<Metric> gated;  ///< BENCHMARK.json end_to_end.
    std::vector<Metric> named;  ///< The same under workload names.
    std::vector<Metric> layers; ///< BENCHMARK.json per_layer.
    std::vector<std::pair<std::string, std::string>> env;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< First few failure messages.
    SpanLog spans;

    void fail(const std::string &why);
    void add(std::vector<Metric> &to, std::string name,
             std::string unit, double value, std::size_t samples)
    {
        to.push_back(Metric{std::move(name), std::move(unit), value,
                            samples});
    }
};

/** Per-layer metrics every workload reports (0 where the layer does
 *  not run on that workload), in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

/** Fill missing per-layer metrics with 0 / 0 samples, and order them
 *  as layerMetricUnits(). */
void completeLayers(Outcome &out);

/**
 * Cuts a measured window into 1-second slices and reads the host's
 * steal time (/proc/stat) at every slice boundary, on its own thread.
 * Statistics pool the samples of the calmer half of the slices (least
 * steal).  Other tenants of a shared host stall whole seconds at a
 * time; a slice they disturbed says nothing about the code under
 * test, and the steal counter shows which ones they were without
 * looking at the measured values.
 */
class Slicer
{
  public:
    /** Starts the window now. */
    explicit Slicer(double window_s);
    ~Slicer() { finish(); }

    Slicer(const Slicer &) = delete;
    Slicer &operator=(const Slicer &) = delete;

    std::uint64_t startNs() const { return start_ns_; }

    /** Wait for the last boundary reading (call after the window). */
    void finish();

    /** Quantile @p q of the samples that started in used slices. */
    double quantile(const std::vector<Timed> &xs, double q) const;

    /** Sum of v over the used slices ÷ their total length (1/s). */
    double rate(const std::vector<Timed> &xs) const;

    /** Slice count, slices used and steal percentages, for the record. */
    std::vector<std::pair<std::string, std::string>> env() const;

  private:
    /** Samples that started in used slices, and how many slices. */
    std::vector<double> usedSamples(const std::vector<Timed> &xs,
                                    std::size_t *n_used = nullptr) const;
    std::vector<bool> used() const;
    std::vector<double> stealPct() const;

    double window_s_;
    std::size_t slices_;
    std::uint64_t start_ns_;
    /** (steal, total) jiffies at each slice boundary. */
    std::vector<std::pair<double, double>> marks_;
    std::thread sampler_;
};

/** CPU time (user + system) @p pid has used, in seconds.  Time the
 *  hypervisor steals is not charged to it. */
double cpuSeconds(pid_t pid);

/** VmHWM of @p pid in MiB (0 when unreadable). */
double peakRssMb(pid_t pid);

/**
 * A spawned child process: killed and reaped on destruction unless
 * it was stopped earlier.  Children also die with the benchmark
 * (PR_SET_PDEATHSIG), so a killed benchmark leaves nothing behind.
 */
class Child
{
  public:
    Child() = default;
    /** Start @p bin with @p args, its environment plus @p env, and
     *  stdout/stderr appended to @p log. */
    Child(const std::string &bin, const std::vector<std::string> &args,
          const std::map<std::string, std::string> &env,
          const std::string &log);
    ~Child() { kill(); }

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    Child(Child &&o) noexcept : pid_(o.pid_) { o.pid_ = -1; }

    pid_t pid() const { return pid_; }

    /** Wait up to @p timeout_ms for exit, then SIGKILL; reaps. */
    void waitOrKill(int timeout_ms);
    void kill();

  private:
    pid_t pid_ = -1;
};

/** Ask a line-protocol server on @p port to shut down (best effort). */
void sendShutdown(std::uint16_t port);

} // namespace pbench

#endif // PERFBENCH_HARNESS_HPP
