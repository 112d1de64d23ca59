/**
 * @file
 * Property-based fuzz of the hardware RQ (ISSUE 3 satellite):
 * random admit/dequeue/block/wake/complete interleavings are run
 * against a straightforward reference model (a sorted ready map, a
 * FIFO buffer deque, and plain counters), and every observable of
 * the real HwRq must match after every operation.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "sched/hw_rq.hh"
#include "sched/request.hh"
#include "sim/rng.hh"

namespace umany
{
namespace
{

Behavior
trivialBehavior()
{
    Behavior b;
    b.segments = {fromUs(1.0)};
    return b;
}

/** Executable spec of HwRq admission/ordering/promotion. */
class RefModel
{
  public:
    explicit RefModel(const HwRqParams &p) : p_(p) {}

    RqAdmit
    admit(std::uint64_t seq, ServiceRequest *req)
    {
        if (inFlight < p_.entries) {
            ++inFlight;
            ++admitted;
            ready[seq] = req;
            return RqAdmit::Admitted;
        }
        if (buffer.size() < p_.nicBufferEntries) {
            buffer.emplace_back(seq, req);
            return RqAdmit::Buffered;
        }
        ++rejected;
        return RqAdmit::Rejected;
    }

    ServiceRequest *
    dequeue()
    {
        if (ready.empty())
            return nullptr;
        auto it = ready.begin();
        ServiceRequest *req = it->second;
        ready.erase(it);
        return req;
    }

    void makeReady(std::uint64_t seq, ServiceRequest *req)
    {
        ready[seq] = req;
    }

    ServiceRequest *
    complete()
    {
        --inFlight;
        ++completes;
        if (buffer.empty())
            return nullptr;
        auto [seq, req] = buffer.front();
        buffer.pop_front();
        ++inFlight;
        ++admitted;
        ready[seq] = req;
        return req;
    }

    std::map<std::uint64_t, ServiceRequest *> ready;
    std::deque<std::pair<std::uint64_t, ServiceRequest *>> buffer;
    std::uint32_t inFlight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completes = 0;

  private:
    HwRqParams p_;
};

void
fuzz(const HwRqParams &params, std::uint32_t numServices,
     std::uint64_t seed, int ops)
{
    HwRq rq(params);
    RefModel ref(params);

    Rng rng(seed);
    std::vector<std::unique_ptr<ServiceRequest>> pool;
    std::vector<ServiceRequest *> running;
    std::vector<ServiceRequest *> blocked;
    std::uint64_t nextSeq = 1;
    RequestId nextId = 1;

    auto checkState = [&](int op) {
        ASSERT_EQ(rq.inFlight(), ref.inFlight) << "op " << op;
        ASSERT_EQ(rq.readyCount(), ref.ready.size()) << "op " << op;
        ASSERT_EQ(rq.bufferedCount(), ref.buffer.size())
            << "op " << op;
        ASSERT_EQ(rq.admitted(), ref.admitted) << "op " << op;
        ASSERT_EQ(rq.rejectedCount(), ref.rejected) << "op " << op;
        ASSERT_EQ(rq.completes(), ref.completes) << "op " << op;
        ASSERT_EQ(rq.full(), ref.inFlight >= params.entries)
            << "op " << op;
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            // Arrival.
            const ServiceId svc =
                static_cast<ServiceId>(rng.below(numServices));
            pool.push_back(std::make_unique<ServiceRequest>(
                nextId++, svc, trivialBehavior()));
            ServiceRequest *req = pool.back().get();
            const std::uint64_t seq = nextSeq++;
            const RqAdmit expected = ref.admit(seq, req);
            ASSERT_EQ(rq.admit(seq, req), expected) << "op " << op;
        } else if (pick < 65) {
            // Dequeue (FCFS by arrival sequence; nullptr when empty).
            Tick done = 0;
            ServiceRequest *got = rq.dequeue(1000, done);
            ServiceRequest *want = ref.dequeue();
            ASSERT_EQ(got, want) << "op " << op;
            if (got != nullptr) {
                ASSERT_GT(done, 1000u);
                running.push_back(got);
            }
        } else if (pick < 75) {
            // A running request blocks on a call group (the entry
            // stays in flight; nothing to tell the RQ).
            if (running.empty())
                continue;
            const std::size_t i = rng.below(running.size());
            blocked.push_back(running[i]);
            running.erase(running.begin() + i);
        } else if (pick < 85) {
            // Responses arrive: the NIC flips the Status field.
            if (blocked.empty())
                continue;
            const std::size_t i = rng.below(blocked.size());
            ServiceRequest *req = blocked[i];
            blocked.erase(blocked.begin() + i);
            const std::uint64_t seq = nextSeq++;
            ref.makeReady(seq, req);
            rq.makeReady(seq, req);
        } else {
            // Complete (frees the entry, may promote from buffer).
            if (running.empty())
                continue;
            const std::size_t i = rng.below(running.size());
            ServiceRequest *req = running[i];
            running.erase(running.begin() + i);
            ServiceRequest *want = ref.complete();
            ServiceRequest *got = rq.complete(req->service());
            ASSERT_EQ(got, want) << "op " << op;
        }
        checkState(op);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(HwRqFuzz, DefaultModeMatchesReference)
{
    HwRqParams p;
    p.entries = 8;
    p.nicBufferEntries = 4;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
        fuzz(p, 1, seed, 10000);
}

TEST(HwRqFuzz, MultiServiceDefaultMode)
{
    HwRqParams p;
    p.entries = 6;
    p.nicBufferEntries = 3;
    for (const std::uint64_t seed : {11ull, 12ull})
        fuzz(p, 3, seed, 10000);
}

TEST(HwRq, IdleCoreRegistryLifo)
{
    HwRq rq(HwRqParams{});
    EXPECT_EQ(rq.claimIdleCore(), invalidId);
    rq.coreIdle(3);
    rq.coreIdle(5);
    rq.coreIdle(7);
    EXPECT_EQ(rq.idleCores().size(), 3u);
    EXPECT_EQ(rq.claimIdleCore(), 7u);
    EXPECT_EQ(rq.claimIdleCore(), 5u);
    EXPECT_EQ(rq.claimIdleCore(), 3u);
    EXPECT_EQ(rq.claimIdleCore(), invalidId);
}

} // namespace
} // namespace umany
