#include "harness.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/line_client.hpp"

extern char **environ;

namespace pbench {

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

namespace {

/** (steal, total) jiffies over all CPUs from /proc/stat. */
std::pair<double, double>
hostCpu()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double steal = 0, total = 0, v = 0;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && (in >> v); ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

std::string
fixed2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

} // namespace

Slicer::Slicer(double window_s)
    : window_s_(window_s), slices_(std::size_t(std::max(1.0, window_s))),
      start_ns_(nowNs())
{
    marks_.push_back(hostCpu());
    sampler_ = std::thread([this] {
        for (std::size_t k = 1; k <= slices_; ++k) {
            const auto due = std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(
                    start_ns_ + std::uint64_t(window_s_ * 1e9 * double(k) /
                                              double(slices_))));
            std::this_thread::sleep_until(due);
            marks_.push_back(hostCpu());
        }
    });
}

void
Slicer::finish()
{
    if (sampler_.joinable())
        sampler_.join();
}

std::vector<double>
Slicer::usedSamples(const std::vector<Timed> &xs, std::size_t *n_used) const
{
    const std::vector<bool> use = used();
    const double len = window_s_ / double(slices_);
    std::vector<double> out;
    for (const Timed &x : xs) {
        const std::size_t i = std::size_t(std::max(0.0, x.t / len));
        if (i < use.size() && use[i])
            out.push_back(x.v);
    }
    if (n_used)
        *n_used = std::size_t(std::count(use.begin(), use.end(), true));
    return out;
}

std::vector<double>
Slicer::stealPct() const
{
    std::vector<double> pct;
    for (std::size_t k = 0; k + 1 < marks_.size(); ++k) {
        const double total = marks_[k + 1].second - marks_[k].second;
        const double steal = marks_[k + 1].first - marks_[k].first;
        pct.push_back(total > 0 ? 100.0 * steal / total : 0.0);
    }
    pct.resize(slices_, 0.0);
    return pct;
}

std::vector<bool>
Slicer::used() const
{
    // Slices at or below the (lower) median steal: at least half.
    const std::vector<double> pct = stealPct();
    std::vector<double> sorted = pct;
    std::sort(sorted.begin(), sorted.end());
    const double limit = sorted[(sorted.size() - 1) / 2];
    std::vector<bool> use;
    for (double p : pct)
        use.push_back(p <= limit);
    return use;
}

double
Slicer::quantile(const std::vector<Timed> &xs, double q) const
{
    return pbench::quantile(usedSamples(xs), q);
}

double
Slicer::rate(const std::vector<Timed> &xs) const
{
    std::size_t n_used = 0;
    double sum = 0;
    for (double v : usedSamples(xs, &n_used))
        sum += v;
    return sum / (double(n_used) * window_s_ / double(slices_));
}

std::vector<std::pair<std::string, std::string>>
Slicer::env() const
{
    const std::vector<double> pct = stealPct();
    const std::vector<bool> use = used();
    double all = 0, kept = 0;
    std::size_t n_used = 0;
    for (std::size_t i = 0; i < pct.size(); ++i) {
        all += pct[i];
        if (use[i]) {
            kept += pct[i];
            ++n_used;
        }
    }
    return {{"slices", std::to_string(slices_) + " (" +
                           std::to_string(n_used) + " calmest used)"},
            {"host_steal_pct", fixed2(all / double(pct.size()))},
            {"host_steal_pct_used", fixed2(kept / double(n_used))}};
}

// ------------------------------------------------------------------
// SpanLog

std::uint32_t
SpanLog::intern(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const std::uint32_t id = std::uint32_t(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

int
SpanLog::begin(const std::string &name, int parent)
{
    spans_.push_back(Span{intern(name), parent, nowNs(), 0});
    return int(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    Span &s = spans_[std::size_t(id)];
    s.dur_ns = nowNs() - s.start_ns;
}

void
SpanLog::setInterval(int id, std::uint64_t start_ns, std::uint64_t end_ns)
{
    Span &s = spans_[std::size_t(id)];
    s.start_ns = start_ns;
    s.dur_ns = end_ns - start_ns;
}

void
SpanLog::graft(const ploop::JsonValue &tree, int parent,
               const std::string &prefix, const std::string &nested_prefix)
{
    if (!tree.isObject())
        return;
    const ploop::JsonValue *dur = tree.get("dur_us");
    std::uint64_t origin = nowNs();
    if (parent != kNone && dur && dur->isNumber()) {
        const Span &p = spans_[std::size_t(parent)];
        const double root_ns = dur->asNumber() * 1e3;
        const double slack = double(p.dur_ns) - root_ns;
        origin = p.start_ns + std::uint64_t(std::max(0.0, slack / 2));
    }
    graftNode(tree, parent, origin, prefix, nested_prefix);
}

void
SpanLog::graftNode(const ploop::JsonValue &node, int parent,
                   std::uint64_t origin_ns, const std::string &prefix,
                   const std::string &nested_prefix)
{
    const ploop::JsonValue *name = node.get("name");
    const ploop::JsonValue *start = node.get("start_us");
    const ploop::JsonValue *dur = node.get("dur_us");
    if (!name || !name->isString() || !dur || !dur->isNumber())
        return;
    const double start_us =
        start && start->isNumber() ? start->asNumber() : 0.0;
    spans_.push_back(Span{intern(prefix + name->asString()), parent,
                          origin_ns + std::uint64_t(start_us * 1e3),
                          std::uint64_t(dur->asNumber() * 1e3)});
    const int id = int(spans_.size() - 1);
    const std::string &kid_prefix =
        name->asString() == "upstream_wait" && !nested_prefix.empty()
            ? nested_prefix
            : prefix;
    if (const ploop::JsonValue *kids = node.get("children")) {
        if (kids->isArray())
            for (const ploop::JsonValue &k : kids->items())
                graftNode(k, id, origin_ns, kid_prefix, nested_prefix);
    }
}

std::vector<SpanLog::Row>
SpanLog::table() const
{
    std::vector<std::vector<std::size_t>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent != kNone)
            kids[std::size_t(spans_[i].parent)].push_back(i);

    std::vector<std::vector<double>> durs(names_.size()),
        selfs(names_.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::uint64_t lo = s.start_ns, hi = s.start_ns + s.dur_ns;
        iv.clear();
        for (std::size_t k : kids[i]) {
            const Span &c = spans_[k];
            const std::uint64_t a = std::max(lo, c.start_ns);
            const std::uint64_t b =
                std::min(hi, c.start_ns + c.dur_ns);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        durs[s.name].push_back(double(s.dur_ns) / 1e3);
        selfs[s.name].push_back(
            double(s.dur_ns - std::min(covered, s.dur_ns)) / 1e3);
    }

    std::vector<Row> rows;
    for (std::size_t n = 0; n < names_.size(); ++n) {
        if (durs[n].empty())
            continue;
        double total = 0;
        for (double x : selfs[n])
            total += x;
        rows.push_back(Row{names_[n], durs[n].size(), median(durs[n]),
                           median(selfs[n]), total / 1e3});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.name < b.name; });
    return rows;
}

// ------------------------------------------------------------------
// Outcome and the per-layer metric list

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        {
            {"mapper.candidates", "count"},
            {"mapper.valid_ratio", "ratio"},
            {"mapper.evalcache_hit_ratio_cold", "ratio"},
            {"mapper.evalcache_lookups_cold", "count"},
            {"mapper.evalcache_hit_ratio_warm", "ratio"},
            {"mapper.evalcache_lookups_warm", "count"},
            {"mapper.fresh_evals", "count"},
            {"mapper.ns_per_candidate", "ns"},
            {"mapper.seeds_ms", "ms"},
            {"mapper.random_search_ms", "ms"},
            {"mapper.hill_climb_ms", "ms"},
            {"model.validate_ns", "ns"},
            {"model.quick_eval_ns", "ns"},
            {"model.full_eval_ns", "ns"},
            {"model.random_valid_ratio", "ratio"},
            {"core.network_ms.alexnet", "ms"},
            {"core.network_ms.vgg16", "ms"},
            {"core.network_ms.resnet18", "ms"},
            {"core.network_ms.resnet34", "ms"},
            {"core.sweep_ms", "ms"},
            {"albireo.models_built", "count"},
            {"albireo.arch_build_us", "us"},
            {"api.parse_us", "us"},
            {"api.decode_us", "us"},
            {"api.serialize_us", "us"},
            {"api.response_bytes", "bytes"},
            {"service.execute_us", "us"},
            {"service.result_cache_hit_ratio", "ratio"},
            {"service.miss_search_us", "us"},
            {"net.queue_wait_us", "us"},
            {"net.transport_us", "us"},
            {"cluster.route_decision_us", "us"},
            {"cluster.upstream_write_us", "us"},
            {"cluster.transit_us", "us"},
            {"cluster.splice_us", "us"},
            {"cluster.worker_us", "us"},
            {"cluster.worker_balance", "ratio"},
            {"cluster.failovers", "count"},
            {"obs.trace_overhead_ratio", "ratio"},
        };
    return list;
}

void
completeLayers(Outcome &out)
{
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : layerMetricUnits()) {
        auto it = std::find_if(
            out.layers.begin(), out.layers.end(),
            [&](const Metric &m) { return m.name == name; });
        ordered.push_back(it != out.layers.end()
                              ? *it
                              : Metric{name, unit, 0.0, 0});
    }
    out.layers = std::move(ordered);
}

double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0;
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream rest(stat.substr(paren + 1));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && (rest >> field); ++i)
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / double(::sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

// ------------------------------------------------------------------
// Child

Child::Child(const std::string &bin, const std::vector<std::string> &args,
             const std::map<std::string, std::string> &env,
             const std::string &log)
{
    std::vector<std::string> envs;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        const std::string key = kv.substr(0, kv.find('='));
        if (!env.count(key))
            envs.push_back(kv);
    }
    for (const auto &[k, v] : env)
        envs.push_back(k + "=" + v);
    std::vector<std::string> argv_s = {bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv, envp;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string &e : envs)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            std::_Exit(127);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execve(bin.c_str(), argv.data(), envp.data());
        std::_Exit(127);
    }
}

void
Child::waitOrKill(int timeout_ms)
{
    if (pid_ <= 0)
        return;
    for (int waited = 0; waited <= timeout_ms; waited += 5) {
        int status = 0;
        const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
        if (rc == pid_ || (rc < 0 && errno == ECHILD)) {
            pid_ = -1;
            return;
        }
        ::usleep(5000);
    }
    kill();
}

void
Child::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
}

void
sendShutdown(std::uint16_t port)
{
    ploop::LineClient client;
    std::string resp;
    if (client.connect(port, 2000) &&
        client.sendLine("{\"op\":\"shutdown\"}"))
        client.recvLine(resp);
}

} // namespace pbench
