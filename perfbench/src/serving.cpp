/**
 * @file
 * The two serving workloads, both closed loop with two client
 * connections from this process:
 *
 *  - serve_warm: one `ploop_serve --listen 0` answering a pre-warmed
 *    hot set of 60 distinct small searches (ResultCache hits).
 *  - routed_churn: `ploop_router` in front of two ploop_serve workers
 *    (PLOOP_THREADS=1), with a Zipf-like draw over 2040 distinct
 *    searches -- more keys than the workers' 2x256 ResultCache
 *    entries, so hits run beside cold searches, inserts and evictions.
 *
 * The router is given the workers with --workers rather than
 * --spawn: --spawn keeps its port files outside the working tree,
 * and the benchmark reads and writes only inside its checkout.  The
 * routing path is the same; only who starts the workers differs.
 *
 * Every response is checked against an in-process EvalService oracle
 * computed before timing starts (mapping_key and energy_bits).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include <unistd.h>

#include "api/codec.hpp"
#include "api/fingerprint.hpp"
#include "cluster/hash_ring.hpp"
#include "common/string_util.hpp"
#include "net/line_client.hpp"
#include "net/port_file.hpp"
#include "service/eval_service.hpp"
#include "workloads.hpp"

namespace pbench {
namespace {

constexpr int kClients = 2;
constexpr int kSetupRuns = 9;
/** Raw traced responses kept per client for after-window parsing
 *  (parsing inline would add client time to the traced blocks). */
constexpr std::size_t kTracedKeep = 10000;

/** One distinct search request and its oracle answer. */
struct Case
{
    std::string line;
    std::string traced_line;
    std::string mapping_key; ///< Oracle, "0x%016x".
    std::string energy_bits; ///< Oracle, "0x%016x".
    std::uint64_t fingerprint = 0;
    double energy_j = 0;
    double macs = 0;
    ploop::SearchRequest req;
    std::shared_ptr<ploop::SearchResponse> oracle;
};

ploop::LayerRequest
layerRequest(const ploop::LayerShape &l)
{
    ploop::LayerRequest r;
    r.name = l.name();
    r.fully_connected = l.kind() == ploop::LayerKind::FullyConnected;
    r.n = l.bound(ploop::Dim::N);
    r.k = l.bound(ploop::Dim::K);
    r.c = l.bound(ploop::Dim::C);
    r.p = l.bound(ploop::Dim::P);
    r.q = l.bound(ploop::Dim::Q);
    r.r = l.bound(ploop::Dim::R);
    r.s = l.bound(ploop::Dim::S);
    r.hstride = l.hstride();
    r.wstride = l.wstride();
    return r;
}

/**
 * @p count distinct small searches over the model-zoo layer shapes.
 * Shapes are dealt round-robin from a seeded offset, so every shape
 * appears equally often whatever the seed (the mix, not the luck of
 * the draw, sets the cost); each request's search seed is drawn from
 * @p seed.  Each answer is computed on @p oracle (an
 * in-process EvalService).
 */
std::vector<Case>
makeCases(std::size_t count, std::uint64_t seed, ploop::EvalService &oracle)
{
    const std::vector<ploop::LayerShape> zoo = zooLayers();
    std::mt19937_64 rng(mixSeed(seed, 77));
    const std::size_t offset = std::size_t(rng() % zoo.size());
    std::set<std::pair<std::size_t, std::uint64_t>> seen;
    std::vector<Case> cases;
    while (cases.size() < count) {
        const std::size_t li = (offset + cases.size()) % zoo.size();
        const std::uint64_t search_seed = rng() % 1000000;
        if (!seen.insert({li, search_seed}).second)
            continue;
        const std::size_t id = cases.size();
        ploop::JsonValue j = ploop::JsonValue::object();
        j.set("op", ploop::JsonValue::string("search"));
        j.set("id", ploop::JsonValue::number(double(id)));
        j.set("layer", ploop::encodeRequestJson(layerRequest(zoo[li])));
        ploop::JsonValue o = ploop::JsonValue::object();
        o.set("random_samples", ploop::JsonValue::number(24));
        o.set("hill_climb_rounds", ploop::JsonValue::number(4));
        o.set("seed", ploop::JsonValue::number(double(search_seed)));
        j.set("options", std::move(o));

        Case c;
        c.line = j.serialize();
        j.set("trace", ploop::JsonValue::boolean(true));
        c.traced_line = j.serialize();
        c.req = ploop::decodeRequestJson<ploop::SearchRequest>(
            *ploop::parseJson(c.line));
        c.fingerprint = ploop::requestFingerprint(c.req);
        c.oracle = std::make_shared<ploop::SearchResponse>(
            oracle.search(c.req));
        c.mapping_key = ploop::hexU64(c.oracle->mapping_key);
        std::uint64_t ebits;
        std::memcpy(&ebits, &c.oracle->best.energy_j, sizeof ebits);
        c.energy_bits = ploop::hexU64(ebits);
        c.energy_j = c.oracle->best.energy_j;
        c.macs = double(zoo[li].macs());
        cases.push_back(std::move(c));
    }
    return cases;
}

/** The value of string field @p key in a flat response, or "". */
std::string
stringField(const std::string &resp, const char *key)
{
    const std::string pat = std::string("\"") + key + "\":\"";
    const std::size_t at = resp.find(pat);
    if (at == std::string::npos)
        return std::string();
    const std::size_t from = at + pat.size();
    const std::size_t to = resp.find('"', from);
    return to == std::string::npos ? std::string()
                                   : resp.substr(from, to - from);
}

/**
 * Check one response line against its case.  Cheap string probes on
 * the hot path: ok flag, the two oracle values and the echoed id.
 * Sets @p hit from from_result_cache.  Empty string when correct.
 */
std::string
checkResponse(const std::string &resp, const Case &c, std::size_t id,
              bool &hit)
{
    if (resp.empty())
        return "no response (connection failed)";
    if (resp.compare(0, 10, "{\"ok\":true") != 0)
        return "not ok: " + resp.substr(0, 160);
    if (stringField(resp, "mapping_key") != c.mapping_key)
        return "mapping_key differs from the oracle for id " +
               std::to_string(id);
    if (stringField(resp, "energy_bits") != c.energy_bits)
        return "energy_bits differ from the oracle for id " +
               std::to_string(id);
    hit = resp.find("\"from_result_cache\":true") != std::string::npos;
    const std::size_t at = resp.rfind("\"id\":");
    if (at == std::string::npos ||
        std::strtoull(resp.c_str() + at + 5, nullptr, 10) != id)
        return "response id does not match request " + std::to_string(id);
    return std::string();
}

/** A running serving topology: the process(es) and the client port. */
struct Topology
{
    std::vector<Child> procs; ///< Workers first, router last.
    std::vector<std::uint16_t> worker_ports;
    std::uint16_t port = 0; ///< What clients connect to.
    bool routed = false;

    double peakRssMb() const
    {
        double mb = 0;
        for (const Child &c : procs)
            mb += pbench::peakRssMb(c.pid());
        return mb;
    }

    double cpuSeconds() const
    {
        double s = 0;
        for (const Child &c : procs)
            s += pbench::cpuSeconds(c.pid());
        return s;
    }

    void stop()
    {
        if (port)
            sendShutdown(port); // a router drains; its workers stay up
        if (routed && !procs.empty())
            procs.back().waitOrKill(5000);
        for (std::uint16_t p : worker_ports)
            sendShutdown(p);
        for (Child &c : procs)
            c.waitOrKill(5000);
        procs.clear();
        port = 0;
    }
};

std::uint16_t
awaitPort(const std::string &path)
{
    std::string err;
    const int port = ploop::readPortFile(path, 10000, &err);
    if (port <= 0)
        throw std::runtime_error("server never published its port: " +
                                 err);
    return std::uint16_t(port);
}

/** Start the workload's servers; returns once the port is known. */
Topology
startTopology(const Options &opt, bool routed, int run)
{
    Topology t;
    t.routed = routed;
    const std::string base = opt.work_dir + "/" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(run);
    const std::string serve = opt.bin_dir + "/ploop_serve";
    const std::string log = opt.work_dir + "/servers.log";
    const int workers = routed ? 2 : 1;
    const std::string threads =
        std::to_string(routed ? 1u : opt.serve_threads);
    for (int w = 0; w < workers; ++w) {
        const std::string pf = base + "-w" + std::to_string(w) + ".port";
        ::unlink(pf.c_str());
        t.procs.emplace_back(serve,
                             std::vector<std::string>{"--listen", "0",
                                                      "--port-file", pf},
                             std::map<std::string, std::string>{
                                 {"PLOOP_THREADS", threads}},
                             log);
    }
    for (int w = 0; w < workers; ++w) {
        const std::string pf = base + "-w" + std::to_string(w) + ".port";
        t.worker_ports.push_back(awaitPort(pf));
        ::unlink(pf.c_str());
    }
    if (!routed) {
        t.port = t.worker_ports[0];
        t.worker_ports.clear(); // the client port is the worker
        return t;
    }
    const std::string pf = base + "-router.port";
    ::unlink(pf.c_str());
    std::string list;
    for (std::uint16_t p : t.worker_ports)
        list += (list.empty() ? "" : ",") + std::to_string(p);
    t.procs.emplace_back(opt.bin_dir + "/ploop_router",
                         std::vector<std::string>{"--listen", "0",
                                                  "--port-file", pf,
                                                  "--workers", list},
                         std::map<std::string, std::string>{}, log);
    t.port = awaitPort(pf);
    ::unlink(pf.c_str());
    return t;
}

/** What one client thread saw. */
struct ClientLog
{
    std::vector<Timed> lat_us, hit_us; ///< Stamped at request start.
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t done[2] = {}; ///< Completions in untraced/traced blocks.
    std::vector<std::string> errors;
    std::vector<std::uint32_t> sent; ///< Per-case send count.
    std::vector<std::string> traced; ///< Raw traced responses.
    std::vector<float> traced_rtt_us;
};

/** Per-layer samples extracted from traced responses. */
struct LayerSamples
{
    std::vector<double> queue_wait, execute, transport;
    std::vector<double> route, write, transit, splice, worker;
    std::vector<double> phases[3]; ///< seeds/random/hill per miss (ms).
    std::vector<double> candidates, lookups, fresh, miss_rtt;
    double evaluated = 0, invalid = 0, cache_hits = 0, cache_misses = 0;
    double mapper_ms = 0;
    double failovers = 0;
};

const ploop::JsonValue *
child(const ploop::JsonValue &node, const char *name)
{
    if (const ploop::JsonValue *kids = node.get("children"))
        for (const ploop::JsonValue &k : kids->items())
            if (k.get("name")->asString() == name)
                return &k;
    return nullptr;
}

double
durUs(const ploop::JsonValue *node)
{
    return node ? node->get("dur_us")->asNumber() : 0.0;
}

double
countSpans(const ploop::JsonValue &node, const std::string &name)
{
    double n = node.get("name")->asString() == name ? 1 : 0;
    if (const ploop::JsonValue *kids = node.get("children"))
        for (const ploop::JsonValue &k : kids->items())
            n += countSpans(k, name);
    return n;
}

/** Parse one traced response: graft its span tree and pull the
 *  per-layer samples out of it. */
void
absorbTraced(const std::string &resp, double rtt_us, bool routed,
             Outcome &out, LayerSamples &ls)
{
    std::optional<ploop::JsonValue> j = ploop::parseJson(resp);
    const ploop::JsonValue *tree = j ? j->get("trace") : nullptr;
    if (!tree || !tree->isObject()) {
        out.fail("traced response carries no trace");
        return;
    }
    const std::uint64_t now = nowNs();
    SpanLog &spans = out.spans;
    const int span = spans.begin("bench.LineClient::roundTrip");
    spans.setInterval(span, now - std::uint64_t(rtt_us * 1e3), now);
    spans.graft(*tree, span, routed ? "router." : "serve.", "serve.");

    const double root = durUs(tree);
    ls.transport.push_back(rtt_us - root);
    const ploop::JsonValue *worker = tree;
    if (routed) {
        const ploop::JsonValue *wait = child(*tree, "upstream_wait");
        ls.route.push_back(durUs(child(*tree, "route_decision")));
        ls.write.push_back(durUs(child(*tree, "upstream_write")));
        ls.splice.push_back(durUs(child(*tree, "splice_response")));
        const ploop::JsonValue *transit =
            wait ? wait->get("transit_us") : nullptr;
        if (transit && transit->isNumber())
            ls.transit.push_back(transit->asNumber());
        worker = wait ? child(*wait, "request") : nullptr;
        if (worker)
            ls.worker.push_back(durUs(worker));
    }
    if (worker) {
        ls.queue_wait.push_back(durUs(child(*worker, "queue_wait")));
        ls.execute.push_back(durUs(child(*worker, "execute")));
    }
    double phases[3] = {};
    addPhaseMs(*tree, phases);
    ls.failovers += countSpans(*tree, "failover_redispatch");

    const ploop::JsonValue *hit = j->get("from_result_cache");
    const ploop::JsonValue *st = j->get("stats");
    if (!hit || hit->asBool() || !st)
        return;
    ls.miss_rtt.push_back(rtt_us);
    auto num = [&](const char *k) {
        const ploop::JsonValue *v = st->get(k);
        return v && v->isNumber() ? v->asNumber() : 0.0;
    };
    const double ev = num("evaluated"), inv = num("invalid");
    const double h = num("cache_hits"), m = num("cache_misses");
    ls.evaluated += ev;
    ls.invalid += inv;
    ls.cache_hits += h;
    ls.cache_misses += m;
    ls.candidates.push_back(ev + inv);
    ls.lookups.push_back(h + m);
    ls.fresh.push_back(num("fresh_evals"));
    for (int i = 0; i < 3; ++i) {
        ls.phases[i].push_back(phases[i]);
        ls.mapper_ms += phases[i];
    }
}

/** Draws the next case index for one client. */
using Picker = std::function<std::size_t()>;

/**
 * Closed loop on one connection until @p end_ns.  In the traced run,
 * requests started in odd blocks carry `"trace": true`.
 */
void
clientLoop(std::uint16_t port, const std::vector<Case> &cases,
           Picker pick, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t block_ns, bool trace_run, ClientLog &log)
{
    ploop::LineClient client;
    log.sent.assign(cases.size(), 0);
    if (!client.connect(port)) {
        ++log.attempted;
        ++log.failed;
        log.errors.push_back("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
        return;
    }
    for (std::uint64_t now = nowNs(); now < end_ns; now = nowNs()) {
        const bool traced =
            trace_run && ((now - start_ns) / block_ns) % 2 == 1;
        const std::size_t id = pick();
        const Case &c = cases[id];
        const std::uint64_t t0 = nowNs();
        const double at = double(t0 - start_ns) / 1e9;
        const std::string resp =
            client.roundTrip(traced ? c.traced_line : c.line);
        const float us = float(double(nowNs() - t0) / 1e3);
        ++log.attempted;
        ++log.sent[id];
        bool hit = false;
        const std::string err = checkResponse(resp, c, id, hit);
        if (!err.empty()) {
            ++log.failed;
            if (log.errors.size() < 4)
                log.errors.push_back(err);
            if (resp.empty() && !client.connect(port))
                return;
            continue;
        }
        ++log.done[traced];
        log.lat_us.push_back({at, us});
        if (hit)
            log.hit_us.push_back({at, us});
        ++(hit ? log.hits : log.misses);
        if (traced && log.traced.size() < kTracedKeep) {
            log.traced.push_back(resp);
            log.traced_rtt_us.push_back(us);
        }
    }
}

/** Send every case once on one connection (the pre-warm). */
void
warmAll(std::uint16_t port, const std::vector<Case> &cases, bool traced,
        Outcome &out, LayerSamples &ls, bool routed)
{
    ploop::LineClient client;
    if (!client.connect(port)) {
        out.fail("pre-warm: cannot connect");
        return;
    }
    for (std::size_t id = 0; id < cases.size(); ++id) {
        const std::uint64_t t0 = nowNs();
        const std::string resp =
            client.roundTrip(traced ? cases[id].traced_line : cases[id].line);
        const double us = double(nowNs() - t0) / 1e3;
        bool hit = false;
        ++out.attempted;
        const std::string err = checkResponse(resp, cases[id], id, hit);
        if (!err.empty()) {
            out.fail("pre-warm: " + err);
            continue;
        }
        if (traced)
            absorbTraced(resp, us, routed, out, ls);
    }
}

struct Spec
{
    bool routed;
    std::size_t keys;
    double zipf_s; ///< 0 = uniform cycling over the keys.
};

Outcome
runServing(const Options &opt, const Spec &spec)
{
    Outcome out;
    // Oracle and requests, before any timing.
    std::vector<double> build_us;
    for (int i = 0; opt.trace && i < 101; ++i) {
        ploop::EvalService svc;
        const std::uint64_t t0 = nowNs();
        svc.evaluatorFor(ploop::AlbireoConfig{});
        build_us.push_back(double(nowNs() - t0) / 1e3);
    }
    ploop::EvalService oracle;
    std::vector<Case> cases = makeCases(spec.keys, opt.seed, oracle);
    if (opt.self_test)
        cases[0].energy_bits[3] = cases[0].energy_bits[3] == '0' ? '1' : '0';
    double energy_j = 0, macs = 0;
    for (const Case &c : cases) {
        energy_j += c.energy_j;
        macs += c.macs;
    }

    // Set-up: spawn until the first request is answered, several
    // times; the last topology stays up for the measured window.
    std::vector<double> setup_s;
    Topology topo;
    for (int run = 0; run < kSetupRuns; ++run) {
        topo.stop();
        const std::uint64_t t0 = nowNs();
        topo = startTopology(opt, spec.routed, run);
        ploop::LineClient client;
        std::string resp;
        if (client.connect(topo.port))
            resp = client.roundTrip(cases[0].line);
        setup_s.push_back(double(nowNs() - t0) / 1e9);
        bool hit = false;
        ++out.attempted;
        const std::string err = checkResponse(resp, cases[0], 0, hit);
        if (!err.empty())
            out.fail("set-up request: " + err);
    }

    LayerSamples ls;
    if (!spec.routed)
        warmAll(topo.port, cases, opt.trace, out, ls, false);

    // Request streams: uniform cycling over a seeded permutation of
    // the hot set, or a Zipf-like draw over seeded key ranks.
    std::vector<std::size_t> rank(cases.size());
    for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = i;
    std::shuffle(rank.begin(), rank.end(),
                 std::mt19937_64(mixSeed(opt.seed, 9)));
    std::vector<double> cdf;
    if (spec.zipf_s > 0) {
        double acc = 0;
        for (std::size_t r = 0; r < rank.size(); ++r)
            cdf.push_back(acc += 1.0 / std::pow(double(r + 1), spec.zipf_s));
        for (double &x : cdf)
            x /= acc;
    }
    std::vector<ClientLog> logs(kClients);
    std::vector<Picker> pickers;
    for (int k = 0; k < kClients; ++k) {
        auto rng = std::make_shared<std::mt19937_64>(
            mixSeed(opt.seed, 100 + std::uint64_t(k)));
        auto pos = std::make_shared<std::size_t>(std::size_t(k) *
                                                 rank.size() / kClients);
        if (spec.zipf_s > 0)
            pickers.push_back([rng, &cdf, &rank] {
                const double u =
                    std::uniform_real_distribution<double>(0, 1)(*rng);
                const std::size_t r = std::size_t(
                    std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
                return rank[std::min(r, rank.size() - 1)];
            });
        else
            pickers.push_back([pos, &rank] {
                return rank[(*pos)++ % rank.size()];
            });
    }

    const std::uint64_t window = std::uint64_t(opt.seconds * 1e9);
    Slicer slicer(opt.seconds);
    const double cpu0 = topo.cpuSeconds();
    const std::uint64_t start = slicer.startNs();
    const std::uint64_t block = opt.trace ? window / 8 : window;
    {
        std::vector<std::thread> threads;
        for (int k = 0; k < kClients; ++k)
            threads.emplace_back(clientLoop, topo.port, std::cref(cases),
                                 pickers[std::size_t(k)], start,
                                 start + window, block, opt.trace,
                                 std::ref(logs[std::size_t(k)]));
        for (std::thread &t : threads)
            t.join();
    }
    slicer.finish();
    const double cpu_s = topo.cpuSeconds() - cpu0;
    const double rss = topo.peakRssMb();
    const std::vector<std::uint16_t> worker_ports = topo.worker_ports;
    topo.stop();

    std::vector<Timed> lat, hit_lat, completions;
    std::uint64_t hits = 0, misses = 0, done[2] = {};
    std::vector<std::uint64_t> sent(cases.size(), 0);
    for (ClientLog &l : logs) {
        out.attempted += l.attempted;
        out.failed += l.failed;
        for (const std::string &e : l.errors)
            if (out.errors.size() < 8)
                out.errors.push_back(e);
        lat.insert(lat.end(), l.lat_us.begin(), l.lat_us.end());
        hit_lat.insert(hit_lat.end(), l.hit_us.begin(), l.hit_us.end());
        hits += l.hits;
        misses += l.misses;
        done[0] += l.done[0];
        done[1] += l.done[1];
        for (std::size_t i = 0; i < l.sent.size(); ++i)
            sent[i] += l.sent[i];
    }

    out.env = {{"ploop_threads",
                spec.routed ? "1 (per worker)"
                            : std::to_string(opt.serve_threads)},
               {"clients", std::to_string(kClients)},
               {"distinct_requests", std::to_string(cases.size())}};
    for (const auto &kv : slicer.env())
        out.env.push_back(kv);
    if (!opt.trace) {
        for (const Timed &x : lat)
            completions.push_back({x.t, 1.0});
        const double rps = slicer.rate(completions);
        const double p50 = slicer.quantile(lat, 0.5);
        const double p99 = slicer.quantile(lat, 0.99);
        out.add(out.gated, "setup_s", "s", median(setup_s), setup_s.size());
        out.add(out.gated, "latency_us_p50", "us", p50, lat.size());
        out.add(out.gated, "warm_latency_us_p50", "us",
                slicer.quantile(hit_lat, 0.5),
                hit_lat.size());
        out.add(out.gated, "cpu_us_per_search", "us",
                lat.empty() ? 0 : cpu_s * 1e6 / double(lat.size()),
                lat.size());
        out.add(out.gated, "energy_pj_per_mac", "pJ/MAC",
                energy_j / macs * 1e12, cases.size());
        out.add(out.gated, "peak_rss_mb", "MB", rss, spec.routed ? 3 : 1);

        out.add(out.named, "setup_s", "s", median(setup_s), setup_s.size());
        out.add(out.named, "req_us_p50", "us", p50, lat.size());
        out.add(out.named, "req_us_p99", "us", p99, lat.size());
        out.add(out.named, "req_per_s", "1/s", rps, lat.size());
        out.add(out.named, "energy_pj_per_mac", "pJ/MAC",
                energy_j / macs * 1e12, cases.size());
        return out;
    }

    for (ClientLog &l : logs)
        for (std::size_t i = 0; i < l.traced.size(); ++i)
            absorbTraced(l.traced[i], l.traced_rtt_us[i], spec.routed,
                         out, ls);

    const double cand = ls.evaluated + ls.invalid;
    const double lookups = ls.cache_hits + ls.cache_misses;
    out.add(out.layers, "mapper.candidates", "count", median(ls.candidates),
            ls.candidates.size());
    out.add(out.layers, "mapper.valid_ratio", "ratio",
            cand ? ls.evaluated / cand : 0, ls.candidates.size());
    out.add(out.layers, "mapper.evalcache_hit_ratio_cold", "ratio",
            lookups ? ls.cache_hits / lookups : 0, ls.lookups.size());
    out.add(out.layers, "mapper.evalcache_lookups_cold", "count",
            median(ls.lookups), ls.lookups.size());
    out.add(out.layers, "mapper.fresh_evals", "count", median(ls.fresh),
            ls.fresh.size());
    out.add(out.layers, "mapper.ns_per_candidate", "ns",
            cand ? ls.mapper_ms * 1e6 / cand : 0, ls.candidates.size());
    const char *const phase_names[] = {"mapper.seeds_ms",
                                       "mapper.random_search_ms",
                                       "mapper.hill_climb_ms"};
    for (int i = 0; i < 3; ++i)
        out.add(out.layers, phase_names[i], "ms", median(ls.phases[i]),
                ls.phases[i].size());
    out.add(out.layers, "service.execute_us", "us", median(ls.execute),
            ls.execute.size());
    out.add(out.layers, "service.result_cache_hit_ratio", "ratio",
            hits + misses ? double(hits) / double(hits + misses) : 0,
            hits + misses);
    out.add(out.layers, "service.miss_search_us", "us", median(ls.miss_rtt),
            ls.miss_rtt.size());
    out.add(out.layers, "net.queue_wait_us", "us", median(ls.queue_wait),
            ls.queue_wait.size());
    out.add(out.layers, "net.transport_us", "us", median(ls.transport),
            ls.transport.size());
    if (spec.routed) {
        out.add(out.layers, "cluster.route_decision_us", "us", median(ls.route),
                ls.route.size());
        out.add(out.layers, "cluster.upstream_write_us", "us", median(ls.write),
                ls.write.size());
        out.add(out.layers, "cluster.transit_us", "us", median(ls.transit),
                ls.transit.size());
        out.add(out.layers, "cluster.splice_us", "us", median(ls.splice),
                ls.splice.size());
        out.add(out.layers, "cluster.worker_us", "us", median(ls.worker),
                ls.worker.size());
        // Requests per worker, from the router's own consistent-hash
        // ring over the workers it was given (no failovers expected).
        ploop::HashRing ring;
        std::map<std::string, double> per_worker;
        for (std::uint16_t p : worker_ports) {
            const std::string name =
                ploop::strFormat("127.0.0.1:%u", unsigned(p));
            ring.add(name);
            per_worker[name] = 0;
        }
        for (std::size_t i = 0; i < cases.size(); ++i)
            if (const std::string *w = ring.lookup(cases[i].fingerprint))
                per_worker[*w] += double(sent[i]);
        double lo = 1e300, hi = 0;
        for (const auto &[name, n] : per_worker) {
            lo = std::min(lo, n);
            hi = std::max(hi, n);
        }
        out.add(out.layers, "cluster.worker_balance", "ratio",
                lo > 0 ? hi / lo : 0, std::size_t(done[0] + done[1]));
        out.add(out.layers, "cluster.failovers", "count", ls.failovers,
                ls.transport.size());
    }
    out.add(out.layers, "obs.trace_overhead_ratio", "ratio",
            done[0] ? double(done[1]) / double(done[0]) : 0,
            std::size_t(done[0] + done[1]));

    probeModel(oracle.evaluatorFor(ploop::AlbireoConfig{}), zooLayers(),
               opt.seed, out);
    std::vector<ApiCase> api;
    for (std::size_t i = 0; i < std::min<std::size_t>(cases.size(), 64); ++i) {
        const Case &c = cases[i];
        api.push_back(ApiCase{
            c.line,
            [](const ploop::JsonValue &v) {
                (void)ploop::decodeRequestJson<ploop::SearchRequest>(v);
            },
            [&c] {
                return ploop::responseJson(c.req, *c.oracle).serialize();
            }});
    }
    probeApi(api, out);
    reportAlbireo(build_us, double(oracle.stats().models_built), out);
    return out;
}

} // namespace

// Key counts are whole multiples of the zoo's distinct layer shapes
// (30 today: 60 and 2040), so every shape is equally represented and
// the mix does not change with the seed.

Outcome
runServeWarm(const Options &opt)
{
    return runServing(opt, Spec{false, 2 * zooLayers().size(), 0.0});
}

Outcome
runRoutedChurn(const Options &opt)
{
    return runServing(opt, Spec{true, 68 * zooLayers().size(), 1.0});
}

} // namespace pbench
