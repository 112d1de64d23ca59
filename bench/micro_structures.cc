/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot substrate
 * structures: hardware request queue operations, software ready
 * lists, topology routing, cache accesses, branch predictors, and
 * latency histograms.
 */

#include <benchmark/benchmark.h>

#include "mem/cache.hh"
#include "noc/leaf_spine.hh"
#include "noc/mesh.hh"
#include "sched/hw_rq.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "uarch/gshare.hh"
#include "uarch/perceptron.hh"

namespace
{

using namespace umany;

void
BM_HwRqAdmitDequeueComplete(benchmark::State &state)
{
    HwRq rq{HwRqParams{}};
    ServiceRequest req(1, 0, Behavior{{1000}, {}});
    std::uint64_t seq = 1;
    for (auto _ : state) {
        rq.admit(seq++, &req);
        Tick done = 0;
        benchmark::DoNotOptimize(rq.dequeue(0, done));
        rq.complete(0);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HwRqAdmitDequeueComplete);

void
BM_ReadyListInsertPop(benchmark::State &state)
{
    ReadyList list;
    ServiceRequest req(1, 0, Behavior{{1000}, {}});
    const std::int64_t n = state.range(0);
    std::uint64_t seq = 1;
    for (auto _ : state) {
        for (std::int64_t i = 0; i < n; ++i)
            list.insert(seq++, &req);
        while (!list.empty())
            benchmark::DoNotOptimize(list.popFront());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReadyListInsertPop)->Arg(64);

void
BM_LeafSpineRoute(benchmark::State &state)
{
    LeafSpine topo{LeafSpineParams{}};
    Rng rng(1);
    std::vector<LinkId> path;
    const std::uint32_t n =
        static_cast<std::uint32_t>(topo.endpointCount());
    for (auto _ : state) {
        const EndpointId a = static_cast<EndpointId>(rng.below(n));
        const EndpointId b = static_cast<EndpointId>(rng.below(n));
        topo.route(a, b, rng, path);
        benchmark::DoNotOptimize(path.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeafSpineRoute);

void
BM_MeshRoute(benchmark::State &state)
{
    MeshParams mp;
    mp.width = 8;
    mp.height = 4;
    mp.endpointsPerNode = 5;
    Mesh2D topo(mp);
    Rng rng(1);
    std::vector<LinkId> path;
    const std::uint32_t n =
        static_cast<std::uint32_t>(topo.endpointCount());
    for (auto _ : state) {
        const EndpointId a = static_cast<EndpointId>(rng.below(n));
        const EndpointId b = static_cast<EndpointId>(rng.below(n));
        topo.route(a, b, rng, path);
        benchmark::DoNotOptimize(path.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshRoute);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"l1", 64 * 1024, 8, 64, 2});
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 20) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_GshareStep(benchmark::State &state)
{
    GsharePredictor bp;
    Rng rng(3);
    for (auto _ : state) {
        const std::uint64_t pc = rng.below(4096) * 4;
        benchmark::DoNotOptimize(bp.step(pc, rng.chance(0.6)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GshareStep);

void
BM_PerceptronStep(benchmark::State &state)
{
    PerceptronPredictor bp;
    Rng rng(3);
    for (auto _ : state) {
        const std::uint64_t pc = rng.below(4096) * 4;
        benchmark::DoNotOptimize(bp.step(pc, rng.chance(0.6)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerceptronStep);

void
BM_HistogramAddQuantile(benchmark::State &state)
{
    Rng rng(11);
    for (auto _ : state) {
        Histogram h;
        for (int i = 0; i < 4096; ++i)
            h.add(rng.below(1 << 30));
        benchmark::DoNotOptimize(h.p99());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HistogramAddQuantile);

} // namespace

BENCHMARK_MAIN();
