/**
 * @file
 * Per-layer probes shared by every workload: the model kernel timed
 * over random mapspace samples, the JSON request layer timed over
 * the workload's own request lines, and the arch-build numbers.
 */

#include <random>
#include <set>

#include "api/json.hpp"
#include "mapper/mapspace.hpp"
#include "workload/model_zoo.hpp"
#include "workloads.hpp"

namespace pbench {

std::vector<ploop::LayerShape>
zooLayers()
{
    std::vector<ploop::LayerShape> out;
    std::set<std::vector<std::uint64_t>> seen;
    for (const char *net : {"alexnet", "vgg16", "resnet18", "resnet34"}) {
        const ploop::Network network = ploop::makeNetwork(net);
        for (const ploop::LayerShape &l : network.layers()) {
            std::vector<std::uint64_t> key = {
                std::uint64_t(l.kind()), l.hstride(), l.wstride()};
            for (ploop::Dim d : ploop::kAllDims)
                key.push_back(l.bound(d));
            if (seen.insert(key).second)
                out.push_back(l);
        }
    }
    return out;
}

void
probeModel(const ploop::Evaluator &evaluator,
           const std::vector<ploop::LayerShape> &layers,
           std::uint64_t seed, Outcome &out)
{
    constexpr int kSamples = 64;
    constexpr int kReps = 8;
    std::uint64_t sampled = 0, valid_samples = 0;
    std::uint64_t validate_calls = 0, quick_calls = 0, full_calls = 0;
    std::uint64_t validate_ns = 0, quick_ns = 0, full_ns = 0;
    volatile double sink = 0;

    for (std::size_t li = 0; li < layers.size(); ++li) {
        const ploop::LayerShape &layer = layers[li];
        ploop::Mapspace space(evaluator.arch(), layer);
        std::mt19937_64 rng(mixSeed(seed, 1000 + li));

        int span = out.spans.begin("bench.Mapspace::randomSample");
        std::vector<ploop::Mapping> cands;
        for (int i = 0; i < kSamples; ++i)
            cands.push_back(space.randomSample(rng));
        out.spans.end(span);

        // Validation is timed on the random samples, as the search
        // meets them; the evaluators on the valid ones plus the two
        // deterministic seeds, which are valid by construction.
        std::vector<ploop::Mapping> valid = {space.greedySeed(),
                                             space.outerSeed()};
        span = out.spans.begin("bench.Evaluator::isValidMapping");
        std::uint64_t t0 = nowNs();
        for (int r = 0; r < kReps; ++r) {
            for (const ploop::Mapping &m : cands) {
                const bool ok = evaluator.isValidMapping(layer, m);
                if (r == 0 && ok) {
                    valid.push_back(m);
                    ++valid_samples;
                }
            }
        }
        validate_ns += nowNs() - t0;
        out.spans.end(span);
        validate_calls += std::uint64_t(kReps) * cands.size();
        sampled += cands.size();

        span = out.spans.begin("bench.Evaluator::quickEvaluate");
        t0 = nowNs();
        for (int r = 0; r < kReps; ++r)
            for (const ploop::Mapping &m : valid)
                if (auto q = evaluator.quickEvaluate(layer, m))
                    sink = sink + q->energy_j;
        quick_ns += nowNs() - t0;
        out.spans.end(span);
        quick_calls += std::uint64_t(kReps) * valid.size();

        span = out.spans.begin("bench.Evaluator::evaluate");
        t0 = nowNs();
        for (int r = 0; r < kReps; ++r)
            for (const ploop::Mapping &m : valid)
                sink = sink + evaluator.evaluate(layer, m).totalEnergy();
        full_ns += nowNs() - t0;
        out.spans.end(span);
        full_calls += std::uint64_t(kReps) * valid.size();
    }

    auto per = [](std::uint64_t ns, std::uint64_t n) {
        return n ? double(ns) / double(n) : 0.0;
    };
    out.add(out.layers, "model.validate_ns", "ns",
            per(validate_ns, validate_calls), validate_calls);
    out.add(out.layers, "model.quick_eval_ns", "ns",
            per(quick_ns, quick_calls), quick_calls);
    out.add(out.layers, "model.full_eval_ns", "ns",
            per(full_ns, full_calls), full_calls);
    out.add(out.layers, "model.random_valid_ratio", "ratio",
            sampled ? double(valid_samples) / double(sampled) : 0.0,
            sampled);
}

void
probeApi(const std::vector<ApiCase> &cases, Outcome &out)
{
    constexpr int kReps = 8;
    std::uint64_t parse_ns = 0, decode_ns = 0, serialize_ns = 0;
    std::uint64_t calls = 0;
    double bytes = 0;
    for (const ApiCase &c : cases) {
        for (int r = 0; r < kReps; ++r) {
            int span = out.spans.begin("bench.parseJson");
            std::uint64_t t0 = nowNs();
            std::optional<ploop::JsonValue> parsed =
                ploop::parseJson(c.line);
            std::uint64_t t1 = nowNs();
            out.spans.end(span);
            if (!parsed) {
                out.fail("api probe: request line does not parse");
                return;
            }
            span = out.spans.begin("bench.decodeRequestJson");
            c.decode(*parsed);
            std::uint64_t t2 = nowNs();
            out.spans.end(span);
            span = out.spans.begin("bench.responseJson");
            const std::string body = c.serialize();
            std::uint64_t t3 = nowNs();
            out.spans.end(span);
            parse_ns += t1 - t0;
            decode_ns += t2 - t1;
            serialize_ns += t3 - t2;
            bytes += double(body.size());
            ++calls;
        }
    }
    const double n = calls ? double(calls) : 1.0;
    out.add(out.layers, "api.parse_us", "us", double(parse_ns) / n / 1e3,
            calls);
    out.add(out.layers, "api.decode_us", "us",
            double(decode_ns) / n / 1e3, calls);
    out.add(out.layers, "api.serialize_us", "us",
            double(serialize_ns) / n / 1e3, calls);
    out.add(out.layers, "api.response_bytes", "bytes", bytes / n, calls);
}

void
addPhaseMs(const ploop::JsonValue &tree, double phase_ms[3])
{
    static const char *const kPhases[] = {"seeds", "random_search",
                                          "hill_climb"};
    const std::string &name = tree.get("name")->asString();
    for (int i = 0; i < 3; ++i) {
        if (name == kPhases[i]) {
            phase_ms[i] += tree.get("dur_us")->asNumber() / 1e3;
            return; // phases do not nest
        }
    }
    if (const ploop::JsonValue *kids = tree.get("children"))
        for (const ploop::JsonValue &k : kids->items())
            addPhaseMs(k, phase_ms);
}

void
reportAlbireo(const std::vector<double> &build_us, double models_built,
              Outcome &out)
{
    out.add(out.layers, "albireo.arch_build_us", "us", median(build_us),
            build_us.size());
    out.add(out.layers, "albireo.models_built", "count", models_built, 1);
}

} // namespace pbench
