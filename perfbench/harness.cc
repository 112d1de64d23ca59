#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "alloc.hh"
#include "noc/network.hh"
#include "sched/hw_rq.hh"
#include "sched/queue_system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace pb
{

using namespace umany;

namespace
{

using Clock = std::chrono::steady_clock;

/** Timed chunks per harness (after one untimed warm-up chunk). */
constexpr int kChunks = 5;

/**
 * Run @p chunk (which returns its operation count) once to warm up,
 * then kChunks times; report the median chunk's cost per operation.
 */
template <typename Fn>
OpCost
medianCost(Fn &&chunk)
{
    chunk();
    std::vector<OpCost> costs;
    for (int i = 0; i < kChunks; ++i) {
        const std::uint64_t a0 = allocsNow();
        const Clock::time_point t0 = Clock::now();
        const double ops = static_cast<double>(chunk());
        const double ns = std::chrono::duration<double, std::nano>(
                              Clock::now() - t0)
                              .count();
        costs.push_back(
            {ns / ops, static_cast<double>(allocsNow() - a0) / ops});
    }
    std::sort(costs.begin(), costs.end(),
              [](const OpCost &a, const OpCost &b) {
                  return a.nsPerOp < b.nsPerOp;
              });
    return costs[kChunks / 2];
}

/** Hold-model event: fires, then schedules its successor. */
struct Hold
{
    EventQueue *eq;
    Rng *rng;
    std::uint64_t *left;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        eq->scheduleAfter(1 + rng->below(1000), EvTag{EvSrc::Kernel},
                          Hold{*this});
    }
};

} // namespace

OpCost
kernelCost(std::size_t depth)
{
    depth = std::max<std::size_t>(depth, 1);
    return medianCost([depth]() {
        EventQueue eq;
        Rng rng(0x6b65726e);
        std::uint64_t left = 200000;
        for (std::size_t i = 0; i < depth; ++i) {
            eq.schedule(rng.below(1000), EvTag{EvSrc::Kernel},
                        Hold{&eq, &rng, &left});
        }
        eq.run();
        return eq.dispatched();
    });
}

OpCost
nocCost(const MachineParams &machine)
{
    const auto topo = makeTopology(machine);
    const std::uint64_t endpoints = topo->endpointCount();
    return medianCost([&]() {
        EventQueue eq;
        Network net("perfbench.noc", eq, *topo, 0x6e6f63);
        net.setContention(true);
        Rng rng(0x70616972);
        std::uint64_t delivered = 0;
        constexpr int batches = 2000;
        constexpr int perBatch = 16;
        for (int b = 0; b < batches; ++b) {
            for (int i = 0; i < perBatch; ++i) {
                Message msg;
                msg.src = static_cast<EndpointId>(rng.below(endpoints));
                do {
                    msg.dst =
                        static_cast<EndpointId>(rng.below(endpoints));
                } while (msg.dst == msg.src);
                msg.cls = MsgClass::Request;
                net.send(msg, [&delivered]() { ++delivered; });
            }
            eq.run();
        }
        return delivered;
    });
}

OpCost
hwrqCost()
{
    return medianCost([]() {
        HwRq rq{HwRqParams{}};
        ServiceRequest req(1, 0, Behavior{{1000}, {}});
        constexpr std::uint64_t iterations = 200000;
        for (std::uint64_t seq = 1; seq <= iterations; ++seq) {
            rq.admit(seq, &req);
            Tick done = 0;
            if (rq.dequeue(0, done) != &req)
                panic("hardware RQ lost its only request");
            rq.complete(0);
        }
        return 3 * iterations;
    });
}

OpCost
swqCost(const MachineParams &machine)
{
    // The derivation Machine applies to its software queues.
    SwQueueParams sp = machine.swq;
    sp.numQueues = machine.swQueueCount;
    sp.numCores = machine.numCores;
    sp.workStealing = machine.workStealing;
    sp.stealAttempts = machine.stealAttempts;
    sp.ghz = machine.core.ghz;
    return medianCost([&sp]() {
        SwQueueSystem sq(sp, 0x737771);
        ServiceRequest req(1, 0, Behavior{{1000}, {}});
        constexpr std::uint64_t iterations = 200000;
        Tick now = 0;
        for (std::uint64_t seq = 1; seq <= iterations; ++seq) {
            const CoreId core =
                static_cast<CoreId>(seq % sp.numCores);
            now = sq.enqueue(sq.queueOfCore(core), seq, &req, now);
            if (sq.dequeue(core, now, now) != &req)
                panic("software queue lost its only request");
        }
        return 2 * iterations;
    });
}

} // namespace pb
