/**
 * @file
 * dse_zoo: the in-process EvalService API, one closed-loop caller.
 * A pass builds a fresh EvalService and maps the four model-zoo
 * networks plus one small Fig. 4/5 sweep; the warm revisit repeats
 * the same requests on the same service.  Every answer must be
 * bit-identical to a reference pass run at options.threads = 1.
 */

#include <cstring>
#include <memory>

#include <unistd.h>

#include "api/codec.hpp"
#include "mapper/eval_cache.hpp"
#include "obs/trace.hpp"
#include "service/eval_service.hpp"
#include "workloads.hpp"

namespace pbench {
namespace {

const char *const kNets[] = {"alexnet", "vgg16", "resnet18", "resnet34"};
constexpr std::size_t kCalls = 5; // four networks + one sweep

struct ZooRequests
{
    std::vector<ploop::NetworkRequest> nets;
    ploop::SweepRequest sweep;
};

ZooRequests
zooRequests(std::uint64_t seed, unsigned threads)
{
    ZooRequests rq;
    for (std::size_t i = 0; i < 4; ++i) {
        ploop::NetworkRequest req;
        req.network = kNets[i];
        req.options.seed = mixSeed(seed, i) % 1000000007ull;
        req.options.threads = threads;
        rq.nets.push_back(req);
    }
    // Fig. 4 (global-buffer capacity) x Fig. 5 (weight reuse) on a
    // ResNet-18 stage-3 convolution.
    ploop::SweepRequest &sw = rq.sweep;
    sw.layer.name = "res3_conv";
    sw.layer.k = 128;
    sw.layer.c = 128;
    sw.layer.p = sw.layer.q = 28;
    sw.layer.r = sw.layer.s = 3;
    sw.grid.axes = {{"gb_capacity_words", {262144, 2097152}},
                    {"weight_reuse", {1, 3}}};
    sw.options.seed = mixSeed(seed, 4) % 1000000007ull;
    sw.options.threads = threads;
    return rq;
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mixSeed(h ^ v, 0x51);
}

std::uint64_t
bits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

struct PassResult
{
    std::uint64_t digest[kCalls] = {};
    double call_ms[kCalls] = {};
    double energy_j = 0;
    double macs = 0;
    std::size_t searches = 0;
    ploop::SearchStats stats;
    double phase_ms[3] = {}; ///< seeds, random_search, hill_climb.
    std::vector<double> execute_us;
};

/** One pass over the zoo requests.  @p traced attaches a Trace to
 *  each call and grafts it under a benchmark span. */
PassResult
runPass(ploop::EvalService &svc, const ZooRequests &rq, Outcome *traced,
        const char *pass_name)
{
    PassResult pr;
    int pass_span = traced ? traced->spans.begin(pass_name) : -1;

    auto call = [&](std::size_t i, const char *span_name, auto &&fn) {
        std::unique_ptr<ploop::Trace> trace;
        int span = -1;
        if (traced) {
            trace = std::make_unique<ploop::Trace>();
            span = traced->spans.begin(span_name, pass_span);
        }
        const std::uint64_t t0 = nowNs();
        fn(ploop::SpanRef{trace.get(), ploop::Trace::kRoot});
        pr.call_ms[i] = double(nowNs() - t0) / 1e6;
        if (traced) {
            trace->endRoot();
            traced->spans.end(span);
            const ploop::JsonValue tree = trace->toJson();
            traced->spans.graft(tree, span, "inproc.");
            addPhaseMs(tree, pr.phase_ms);
            for (const ploop::JsonValue &k : tree.get("children")->items())
                if (k.get("name")->asString() == "execute")
                    pr.execute_us.push_back(k.get("dur_us")->asNumber());
        }
    };

    for (std::size_t i = 0; i < rq.nets.size(); ++i) {
        call(i, "bench.EvalService::network", [&](ploop::SpanRef ref) {
            ploop::NetworkResponse r = svc.network(rq.nets[i], ref);
            std::uint64_t h = 0;
            for (const ploop::LayerRunResult &l : r.result.layers) {
                h = fold(h, ploop::mappingKey(l.mapping));
                h = fold(h, bits(l.result.totalEnergy()));
            }
            pr.digest[i] = h;
            pr.energy_j += r.result.total_energy_j;
            pr.macs += r.result.total_macs;
            pr.searches += r.result.layers.size();
            pr.stats.accumulate(r.stats);
        });
    }
    call(4, "bench.EvalService::sweep", [&](ploop::SpanRef ref) {
        ploop::SweepResponse r = svc.sweep(rq.sweep, ref);
        std::uint64_t h = 0;
        for (const ploop::SweepPoint &p : r.points) {
            h = fold(h, ploop::mappingKey(p.mapping));
            h = fold(h, bits(p.result.totalEnergy()));
            pr.energy_j += p.result.totalEnergy();
            pr.macs += p.result.counts.macs;
        }
        pr.digest[4] = h;
        pr.searches += r.points.size();
        pr.stats.accumulate(r.stats);
    });
    if (traced)
        traced->spans.end(pass_span);
    return pr;
}

/** Compare a pass against the reference digests. */
void
check(const PassResult &pr, const std::uint64_t ref[kCalls],
      const char *what, Outcome &out)
{
    for (std::size_t i = 0; i < kCalls; ++i) {
        ++out.attempted;
        if (pr.digest[i] != ref[i])
            out.fail(std::string(what) + " pass: " +
                     (i < 4 ? kNets[i] : "sweep") +
                     " differs from the threads=1 reference");
    }
}

} // namespace

Outcome
runDseZoo(const Options &opt)
{
    Outcome out;
    const ZooRequests rq = zooRequests(opt.seed, opt.request_threads);

    // Correctness oracle: the same pass at options.threads = 1 must
    // be bit-identical; every timed pass is compared against it.
    std::uint64_t ref[kCalls];
    double ref_energy = 0, ref_macs = 0, models_built = 0;
    {
        ploop::EvalService svc;
        const PassResult one =
            runPass(svc, zooRequests(opt.seed, 1), nullptr, "");
        std::copy(one.digest, one.digest + kCalls, ref);
        ref_energy = one.energy_j;
        ref_macs = one.macs;
        models_built = double(svc.stats().models_built);
    }
    if (opt.self_test)
        ref[2] ^= 1; // corrupt one expected value
    {
        ploop::EvalService svc;
        check(runPass(svc, rq, nullptr, ""), ref, "threads=N", out);
    }

    // Timed window.  Each cold pass starts with the set-up sample: a
    // fresh session and its first evaluatorFor (the arch build).  In
    // the traced run the window alternates untraced and traced
    // blocks, so the tracing overhead is measured under the same
    // conditions.
    std::vector<Timed> cold_ms, warm_ms, setup_s, searches;
    std::vector<double> build_us, net_ms[4], sweep_ms;
    std::vector<double> phase_ms[3], execute_us, ns_per_cand;
    std::vector<double> cands, valid_ratio, hit_cold, lookups_cold,
        hit_warm, lookups_warm, fresh;
    double block_searches[2] = {}, block_s[2] = {};
    Slicer slicer(opt.seconds);
    const double cpu0 = cpuSeconds(::getpid());
    const std::uint64_t start = slicer.startNs();
    const std::uint64_t window = std::uint64_t(opt.seconds * 1e9);
    const std::uint64_t block = opt.trace ? window / 8 : window;
    while (nowNs() - start < window) {
        const bool traced =
            opt.trace && ((nowNs() - start) / block) % 2 == 1;
        Outcome *tr = traced ? &out : nullptr;
        const std::uint64_t t0 = nowNs();
        const double at = double(t0 - start) / 1e9;
        ploop::EvalService svc;
        const std::uint64_t t_built = nowNs();
        svc.evaluatorFor(ploop::AlbireoConfig{});
        const std::uint64_t t_setup = nowNs();
        const PassResult cold = runPass(svc, rq, tr, "bench.cold_pass");
        const std::uint64_t t1 = nowNs();
        const PassResult warm = runPass(svc, rq, tr, "bench.warm_pass");
        const std::uint64_t t2 = nowNs();
        check(cold, ref, "cold", out);
        check(warm, ref, "warm", out);

        const double pair_s = double(t2 - t0) / 1e9;
        block_searches[traced] += double(cold.searches + warm.searches);
        block_s[traced] += pair_s;
        if (opt.trace && !traced)
            continue;
        cold_ms.push_back({at, double(t1 - t0) / 1e6});
        warm_ms.push_back({at, double(t2 - t1) / 1e6});
        setup_s.push_back({at, double(t_setup - t0) / 1e9});
        build_us.push_back(double(t_setup - t_built) / 1e3);
        searches.push_back({at, double(cold.searches + warm.searches)});
        for (int i = 0; i < 4; ++i)
            net_ms[i].push_back(cold.call_ms[i]);
        sweep_ms.push_back(cold.call_ms[4]);

        const ploop::SearchStats &c = cold.stats, &w = warm.stats;
        const double cand = double(c.evaluated + c.invalid);
        cands.push_back(cand);
        valid_ratio.push_back(cand ? double(c.evaluated) / cand : 0);
        lookups_cold.push_back(double(c.cache_hits + c.cache_misses));
        hit_cold.push_back(c.cacheHitRate());
        lookups_warm.push_back(double(w.cache_hits + w.cache_misses));
        hit_warm.push_back(w.cacheHitRate());
        fresh.push_back(double(c.freshEvals()));
        if (traced) {
            double mapper_ms = 0;
            for (int i = 0; i < 3; ++i) {
                phase_ms[i].push_back(cold.phase_ms[i]);
                mapper_ms += cold.phase_ms[i];
            }
            ns_per_cand.push_back(cand ? mapper_ms * 1e6 / cand : 0);
            execute_us.insert(execute_us.end(), cold.execute_us.begin(),
                              cold.execute_us.end());
        }
    }

    const double energy_pj_per_mac = ref_energy / ref_macs * 1e12;
    const double cpu_s = cpuSeconds(::getpid()) - cpu0;
    const double rss = peakRssMb(::getpid());
    slicer.finish();
    const double n_searches = [&] {
        double n = 0;
        for (const Timed &x : searches)
            n += x.v;
        return n;
    }();
    const double tput = slicer.rate(searches);
    out.env = {{"request_threads", std::to_string(opt.request_threads)},
               {"passes", std::to_string(cold_ms.size())}};
    for (const auto &kv : slicer.env())
        out.env.push_back(kv);

    if (!opt.trace) {
        const double setup = slicer.quantile(setup_s, 0.5);
        out.add(out.gated, "setup_s", "s", setup, setup_s.size());
        out.add(out.gated, "latency_us_p50", "us",
                slicer.quantile(cold_ms, 0.5) * 1e3, cold_ms.size());
        out.add(out.gated, "warm_latency_us_p50", "us",
                slicer.quantile(warm_ms, 0.5) * 1e3, warm_ms.size());
        out.add(out.gated, "cpu_us_per_search", "us",
                n_searches > 0 ? cpu_s * 1e6 / n_searches : 0,
                std::size_t(n_searches));
        out.add(out.gated, "energy_pj_per_mac", "pJ/MAC",
                energy_pj_per_mac, 1);
        out.add(out.gated, "peak_rss_mb", "MB", rss, 1);

        out.add(out.named, "setup_s", "s", setup, setup_s.size());
        out.add(out.named, "cold_pass_ms_p50", "ms",
                slicer.quantile(cold_ms, 0.5), cold_ms.size());
        out.add(out.named, "cold_pass_ms_p95", "ms",
                slicer.quantile(cold_ms, 0.95), cold_ms.size());
        out.add(out.named, "warm_pass_ms_p50", "ms",
                slicer.quantile(warm_ms, 0.5), warm_ms.size());
        out.add(out.named, "searches_per_s", "1/s", tput,
                std::size_t(n_searches));
        out.add(out.named, "energy_pj_per_mac", "pJ/MAC",
                energy_pj_per_mac, 1);
        return out;
    }

    out.add(out.layers, "mapper.candidates", "count", median(cands),
            cands.size());
    out.add(out.layers, "mapper.valid_ratio", "ratio",
            median(valid_ratio), valid_ratio.size());
    out.add(out.layers, "mapper.evalcache_hit_ratio_cold", "ratio",
            median(hit_cold), hit_cold.size());
    out.add(out.layers, "mapper.evalcache_lookups_cold", "count",
            median(lookups_cold), lookups_cold.size());
    out.add(out.layers, "mapper.evalcache_hit_ratio_warm", "ratio",
            median(hit_warm), hit_warm.size());
    out.add(out.layers, "mapper.evalcache_lookups_warm", "count",
            median(lookups_warm), lookups_warm.size());
    out.add(out.layers, "mapper.fresh_evals", "count", median(fresh),
            fresh.size());
    out.add(out.layers, "mapper.ns_per_candidate", "ns",
            median(ns_per_cand), ns_per_cand.size());
    const char *const phase_names[] = {"mapper.seeds_ms",
                                       "mapper.random_search_ms",
                                       "mapper.hill_climb_ms"};
    for (int i = 0; i < 3; ++i)
        out.add(out.layers, phase_names[i], "ms", median(phase_ms[i]),
                phase_ms[i].size());
    for (int i = 0; i < 4; ++i)
        out.add(out.layers, std::string("core.network_ms.") + kNets[i],
                "ms", median(net_ms[i]), net_ms[i].size());
    out.add(out.layers, "core.sweep_ms", "ms", median(sweep_ms),
            sweep_ms.size());
    out.add(out.layers, "service.execute_us", "us", median(execute_us),
            execute_us.size());
    const double untraced = block_s[0] > 0 ? block_searches[0] / block_s[0] : 0;
    const double traced = block_s[1] > 0 ? block_searches[1] / block_s[1] : 0;
    out.add(out.layers, "obs.trace_overhead_ratio", "ratio",
            untraced > 0 ? traced / untraced : 0,
            std::size_t(block_searches[0] + block_searches[1]));

    // Probes outside the window: model kernel, JSON layer, arch build.
    ploop::EvalService probe_svc;
    probeModel(probe_svc.evaluatorFor(ploop::AlbireoConfig{}), zooLayers(),
               opt.seed, out);
    std::vector<ApiCase> cases;
    for (const ploop::NetworkRequest &req : rq.nets) {
        ploop::JsonValue j = ploop::encodeRequestJson(req);
        j.set("op", ploop::JsonValue::string("network"));
        auto resp = std::make_shared<ploop::NetworkResponse>(
            probe_svc.network(req));
        cases.push_back(ApiCase{
            j.serialize(),
            [](const ploop::JsonValue &v) {
                (void)ploop::decodeRequestJson<ploop::NetworkRequest>(v);
            },
            [resp] { return ploop::responseJson(*resp).serialize(); }});
    }
    {
        ploop::JsonValue j = ploop::encodeRequestJson(rq.sweep);
        j.set("op", ploop::JsonValue::string("sweep"));
        auto resp = std::make_shared<ploop::SweepResponse>(
            probe_svc.sweep(rq.sweep));
        const ploop::SweepRequest req = rq.sweep;
        cases.push_back(ApiCase{
            j.serialize(),
            [](const ploop::JsonValue &v) {
                (void)ploop::decodeRequestJson<ploop::SweepRequest>(v);
            },
            [resp, req] {
                return ploop::responseJson(req, *resp).serialize();
            }});
    }
    probeApi(cases, out);
    reportAlbireo(build_us, models_built, out);
    out.add(out.layers, "service.result_cache_hit_ratio", "ratio", 0, 0);
    return out;
}

} // namespace pbench
