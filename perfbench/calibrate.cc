#include "calibrate.hh"

#include <chrono>
#include <cstdint>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

namespace pb
{

namespace
{

struct Event
{
    std::uint64_t when;
    std::uint64_t key;
    std::unique_ptr<std::uint64_t[]> payload;
};

struct Later
{
    bool
    operator()(const Event *a, const Event *b) const
    {
        return a->when > b->when;
    }
};

/** Pending events: about the event queue's median depth on um_15k. */
constexpr int kPending = 400;
constexpr int kSteps = 300000;
/** Distinct hash-map keys: about 8 MB of nodes, the simulator's
 *  working set. */
constexpr std::uint64_t kKeys = 200000;

volatile std::uint64_t sink;

} // namespace

double
calibrate()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::mt19937_64 rng(0x5eed);
    std::priority_queue<Event *, std::vector<Event *>, Later> queue;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint64_t now = 0;
    for (int i = 0; i < kPending; ++i) {
        queue.push(new Event{rng() % 1000, rng() % kKeys,
                             std::make_unique<std::uint64_t[]>(8)});
    }
    for (int i = 0; i < kSteps; ++i) {
        Event *e = queue.top();
        queue.pop();
        now = e->when;
        table[e->key] += now + e->payload[0];
        queue.push(new Event{now + rng() % 1000, rng() % kKeys,
                             std::make_unique<std::uint64_t[]>(
                                 1 + rng() % 16)});
        delete e;
    }
    while (!queue.empty()) {
        delete queue.top();
        queue.pop();
    }
    sink = table.size() + now;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace pb
