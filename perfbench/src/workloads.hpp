/**
 * @file
 * The three workloads and the per-layer probes they share.  Each
 * workload fills an Outcome: gated end-to-end metrics (untraced run)
 * or per-layer metrics (traced run), plus correctness counts.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "model/evaluator.hpp"
#include "workload/layer.hpp"

namespace pbench {

Outcome runDseZoo(const Options &opt);
Outcome runServeWarm(const Options &opt);
Outcome runRoutedChurn(const Options &opt);

/** Every distinct layer shape of the four model-zoo networks. */
std::vector<ploop::LayerShape> zooLayers();

/**
 * model.*: times Evaluator::isValidMapping, quickEvaluate and
 * evaluate over a seeded set of Mapspace::randomSample candidates
 * per layer, and reports the valid fraction of random samples.
 */
void probeModel(const ploop::Evaluator &evaluator,
                const std::vector<ploop::LayerShape> &layers,
                std::uint64_t seed, Outcome &out);

/** One request line with the typed decode/serialize of its op. */
struct ApiCase
{
    std::string line;
    std::function<void(const ploop::JsonValue &)> decode;
    std::function<std::string()> serialize;
};

/** api.*: times parseJson, decodeRequestJson and responseJson. */
void probeApi(const std::vector<ApiCase> &cases, Outcome &out);

/** Add the duration (ms) of every "seeds", "random_search" and
 *  "hill_climb" span of a program span tree into @p phase_ms. */
void addPhaseMs(const ploop::JsonValue &tree, double phase_ms[3]);

/** albireo.*: arch build time of a fresh EvalService's first
 *  evaluatorFor (median of @p build_us) and the models it built. */
void reportAlbireo(const std::vector<double> &build_us,
                   double models_built, Outcome &out);

} // namespace pbench

#endif // PERFBENCH_WORKLOADS_HPP
