/**
 * @file
 * Message-level network engine: delivers messages over a Topology,
 * modelling per-link serialization occupancy (and hence contention
 * and queueing) hop by hop.
 */

#ifndef UMANY_NOC_NETWORK_HH
#define UMANY_NOC_NETWORK_HH

#include <memory>
#include <vector>

#include "noc/message.hh"
#include "noc/topology.hh"
#include "obs/attrib.hh"
#include "sim/inline_function.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "stats/histogram.hh"

namespace umany
{

/**
 * The on-package interconnect simulator.
 *
 * Contention model: each directional link keeps a busy-until time.
 * A message leaving on a link departs at max(now, busyUntil) and
 * occupies the link for its serialization time; arrival at the next
 * hop adds the link latency. With contention disabled, messages see
 * only the contention-free path latency (Fig 7's baseline).
 */
class Network : public SimObject
{
  public:
    /** Inline callbacks: every simulator capture fits the buffer. */
    using DeliverFn = InlineFunction<void()>;
    using DropFn = InlineFunction<void()>;

    /**
     * @param topo Topology to route over; must outlive the network.
     * @param seed RNG seed for ECMP path selection.
     */
    Network(std::string name, EventQueue &eq, const Topology &topo,
            std::uint64_t seed);

    /** Enable/disable link contention (enabled by default). */
    void setContention(bool enabled) { contention_ = enabled; }
    bool contention() const { return contention_; }

    /** Server id used as the pid of emitted trace events. */
    void setTracePid(std::uint32_t pid) { tracePid_ = pid; }

    /**
     * Attach fault state (null detaches). Routing then excludes
     * dead links and mid-flight link deaths retransmit from the
     * source. A null or all-up state costs one pointer/flag test per
     * hop.
     */
    void setFaultState(const FaultState *faults) { faults_ = faults; }
    const FaultState *faultState() const { return faults_; }

    /**
     * Send a message; @p on_deliver runs when it arrives at the
     * destination endpoint.
     *
     * Traffic that may be dropped on partition passes @p on_drop,
     * which then runs instead of @p on_deliver when no live path
     * exists at injection time. When the pair is partitioned
     * (possible only with fault state attached) and no @p on_drop
     * was given, delivery degrades to a fixed loss-recovery penalty
     * instead of dropping, so lifecycle messages are late but never
     * lost.
     */
    void send(const Message &msg, DeliverFn &&on_deliver,
              DropFn &&on_drop = nullptr);

    /** Contention-free latency oracle for this topology. */
    Tick
    idealLatency(EndpointId src, EndpointId dst,
                 std::uint32_t bytes) const
    {
        return topo_.contentionFreeLatency(src, dst, bytes);
    }

    const Topology &topology() const { return topo_; }

    /** @name Statistics @{ */
    std::uint64_t messagesDelivered() const { return delivered_; }
    std::uint64_t messagesSent() const { return sent_; }
    /** Messages dropped for lack of a live path (droppable sends). */
    std::uint64_t messagesDropped() const { return droppedNoPath_; }
    /** Source retransmissions after a mid-flight link death. */
    std::uint64_t reroutes() const { return reroutes_; }
    /** Deliveries that fell back to the degraded fixed penalty. */
    std::uint64_t degradedDeliveries() const { return degraded_; }
    const Histogram &latencyHist() const { return latency_; }
    const Histogram &queueDelayHist() const { return queueDelay_; }
    const std::vector<LinkState> &linkStates() const { return state_; }

    /**
     * Mean utilization across non-access links over the current
     * stats window [statsEpoch, now].
     */
    double meanLinkUtilization() const;

    /** Highest single-link utilization over the stats window. */
    double maxLinkUtilization() const;

    /**
     * Non-access (fabric) links in the topology — the population
     * meanLinkUtilization() averages over. Aggregating utilization
     * across networks of different sizes must weight each mean by
     * this count.
     */
    std::size_t fabricLinkCount() const;
    /** @} */

    /**
     * Time decomposition of the delivery whose callback is currently
     * running. Filled (and meaningful) only while attribution is
     * active; deliver callbacks read it synchronously to charge the
     * ICN components of the arriving request's ledger.
     */
    const IcnDeliveryDetail &lastDelivery() const
    {
        return lastDelivery_;
    }

    /**
     * Clear statistics and start a new stats window at the current
     * tick. Messages in flight across the clear complete but are not
     * counted or recorded in the new window (their send was counted
     * in the old one).
     */
    void clearStats();

  private:
    const Topology &topo_;
    Rng rng_;
    bool contention_ = true;
    std::uint32_t tracePid_ = 0;
    const FaultState *faults_ = nullptr;

    std::vector<LinkState> state_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t droppedNoPath_ = 0;
    std::uint64_t reroutes_ = 0;
    std::uint64_t degraded_ = 0;
    Histogram latency_;     //!< End-to-end message latency (ticks).
    Histogram queueDelay_;  //!< Total per-message wait-for-link time.

    Tick statsEpochTick_ = 0;     //!< Start of the stats window.
    std::uint64_t epoch_ = 0;     //!< Bumped by clearStats().

    /** Retransmission cap before degrading (loss-recovery bound). */
    static constexpr std::uint32_t maxRetransmits = 8;
    /** Fixed end-host loss-recovery penalty for degraded delivery. */
    static constexpr Tick degradedPenalty = 25 * tickPerUs;

    /**
     * One message in flight. Flights are pooled: send() takes one
     * from the free list and delivery (or a drop) returns it, and a
     * recycled flight keeps its path's capacity, so a warm network
     * routes and delivers without touching the allocator.
     */
    struct Flight
    {
        Message msg;
        std::vector<LinkId> path;
        std::size_t hop = 0;
        Tick start = 0;
        Tick queued = 0;
        std::uint64_t epoch = 0;   //!< Stats window it was sent in.
        std::uint32_t retx = 0;    //!< Retransmissions so far.
        /**
         * The message's serialization time on a link of width
         * serWidth. A message keeps its size, so hops recompute it
         * only where the width changes (fat-tree upper links, NIC
         * links). Width 0 serializes in 0 ticks, the reset value.
         */
        Tick ser = 0;
        double serWidth = 0.0;
        /** Per-level hop time, filled only while attribution runs. */
        std::array<Tick, kIcnLevels> levelTicks{};
        DeliverFn deliver;
    };

    std::vector<std::unique_ptr<Flight>> flights_;  //!< Owns the pool.
    std::vector<Flight *> freeFlights_;  //!< Idle pooled flights.

    IcnDeliveryDetail lastDelivery_;

    Flight *acquireFlight();
    void releaseFlight(Flight *flight);
    void hop(Flight *flight);
    void retransmit(Flight *flight);
    void degrade(Flight *flight);
    void finishDelivery(Flight *flight);
    void traceDelivery(const Flight &flight);
};

} // namespace umany

#endif // UMANY_NOC_NETWORK_HH
