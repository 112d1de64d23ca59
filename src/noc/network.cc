#include "noc/network.hh"

#include <algorithm>

#include "fault/fault_state.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "validate/invariants.hh"

namespace umany
{

namespace
{

const char *
msgClassName(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Request: return "icn.request";
      case MsgClass::Response: return "icn.response";
      case MsgClass::Coherence: return "icn.coherence";
      case MsgClass::BulkData: return "icn.bulk";
      case MsgClass::Control: return "icn.control";
    }
    return "icn.msg";
}

} // namespace

Network::Network(std::string name, EventQueue &eq, const Topology &topo,
                 std::uint64_t seed)
    : SimObject(std::move(name), eq), topo_(topo), rng_(seed)
{
    state_.assign(topo_.links().size(), LinkState{});
}

Network::Flight *
Network::acquireFlight()
{
    if (freeFlights_.empty()) {
        flights_.push_back(std::make_unique<Flight>());
        return flights_.back().get();
    }
    Flight *flight = freeFlights_.back();
    freeFlights_.pop_back();
    return flight;
}

void
Network::releaseFlight(Flight *flight)
{
    // Drop an undelivered callback's captures now, not at reuse.
    flight->deliver = nullptr;
    freeFlights_.push_back(flight);
}

void
Network::send(const Message &msg, DeliverFn &&on_deliver,
              DropFn &&on_drop)
{
    ++sent_;
    UMANY_INVARIANT(InvariantChecker::active()->onNetSend());
    Flight *flight = acquireFlight();
    flight->msg = msg;
    flight->hop = 0;
    flight->start = curTick();
    flight->queued = 0;
    flight->epoch = epoch_;
    flight->retx = 0;
    flight->ser = 0;
    flight->serWidth = 0.0;
    flight->levelTicks = {};
    flight->deliver = std::move(on_deliver);
    const bool routed =
        topo_.route(msg.src, msg.dst, rng_, flight->path, faults_);
    if (!routed) {
        // Partition detected at injection time.
        if (on_drop) {
            ++droppedNoPath_;
            UMANY_INVARIANT(InvariantChecker::active()->onNetDrop());
            UMANY_TRACE(TraceSink::active()->instant(
                curTick(), tracePid_, traceIcnTrack, "icn.drop",
                (static_cast<std::uint64_t>(msg.src) << 32) | msg.dst,
                static_cast<double>(msg.bytes)));
            releaseFlight(flight);
            scheduleAfter(0, EvTag{EvSrc::NocDeliver},
                          std::move(on_drop));
        } else {
            degrade(flight);
        }
        return;
    }
    if (flight->path.empty()) {
        // Same-endpoint delivery: immediate. A routing failure must
        // never masquerade as this zero-latency path.
        if (msg.src != msg.dst)
            panic("empty route for distinct endpoints %u -> %u",
                  msg.src, msg.dst);
        ++delivered_;
        UMANY_INVARIANT(InvariantChecker::active()->onNetDeliver());
        latency_.add(0);
        queueDelay_.add(0);
        traceDelivery(*flight);
        scheduleAfter(0, EvTag{EvSrc::NocDeliver},
                      std::move(flight->deliver));
        releaseFlight(flight);
        return;
    }
    hop(flight);
}

void
Network::hop(Flight *flight)
{
    const LinkId id = flight->path[flight->hop];
    if (faults_ != nullptr && !faults_->linkUp(id)) {
        // The next link died while the message was in flight:
        // retransmit from the source over the surviving paths.
        retransmit(flight);
        return;
    }
    const LinkSpec &spec = topo_.links()[id];
    LinkState &st = state_[id];

    // Wormhole-style pipelining: the head waits for the link, the
    // link is occupied for the serialization time, and only the
    // last hop additionally waits for the tail to arrive.
    if (spec.bytesPerTick != flight->serWidth) {
        flight->ser = spec.serializationTime(flight->msg.bytes);
        flight->serWidth = spec.bytesPerTick;
    }
    const Tick ser = flight->ser;
    Tick depart = curTick();
    if (contention_) {
        depart = std::max(depart, st.busyUntil);
        st.busyUntil = depart + ser;
    }
    const Tick wait = depart - curTick();
    flight->queued += wait;

    st.messages += 1;
    st.bytes += flight->msg.bytes;
    st.busyTime += ser;
    st.queueDelay += wait;

    const bool last_hop = flight->hop + 1 == flight->path.size();
    const Tick arrival = depart + spec.latency + (last_hop ? ser : 0);
    flight->hop += 1;
    UMANY_ATTRIB(
        flight->levelTicks[std::min<std::size_t>(
            spec.level, kIcnLevels - 1)] +=
        spec.latency + (last_hop ? ser : 0));

    // The pool owns the flight; the event only points at it.
    const EvTag tag{last_hop ? EvSrc::NocDeliver : EvSrc::NocHop};
    eventq().schedule(arrival, tag, [this, flight]() {
        if (flight->hop >= flight->path.size())
            finishDelivery(flight);
        else
            hop(flight);
    });
}

void
Network::retransmit(Flight *flight)
{
    flight->retx += 1;
    if (flight->retx > maxRetransmits) {
        degrade(flight);
        return;
    }
    if (flight->epoch == epoch_)
        ++reroutes_;
    if (!topo_.route(flight->msg.src, flight->msg.dst, rng_,
                     flight->path, faults_)) {
        degrade(flight);
        return;
    }
    flight->hop = 0;
    hop(flight);
}

void
Network::degrade(Flight *flight)
{
    // No surviving path (or retransmissions exhausted): model the
    // end-host loss-recovery timeout as a fixed penalty instead of
    // losing the message, so request-lifecycle traffic is delayed
    // but conserved.
    if (flight->epoch == epoch_)
        ++degraded_;
    UMANY_TRACE(TraceSink::active()->instant(
        curTick(), tracePid_, traceIcnTrack, "icn.degraded",
        (static_cast<std::uint64_t>(flight->msg.src) << 32) |
            flight->msg.dst,
        static_cast<double>(flight->msg.bytes)));
    eventq().scheduleAfter(degradedPenalty, EvTag{EvSrc::NocDeliver},
                           [this, flight]() { finishDelivery(flight); });
}

void
Network::finishDelivery(Flight *flight)
{
    UMANY_INVARIANT(InvariantChecker::active()->onNetDeliver());
    // Only same-window flights count toward window stats: a message
    // in flight across clearStats() would otherwise record a
    // delivery without a matching send.
    if (flight->epoch == epoch_) {
        ++delivered_;
        latency_.add(curTick() - flight->start);
        queueDelay_.add(flight->queued);
    }
    UMANY_ATTRIB({
        lastDelivery_.queued = flight->queued;
        lastDelivery_.level = flight->levelTicks;
        lastDelivery_.valid = true;
    });
    traceDelivery(*flight);
    // Free the flight before the callback runs: the callback may
    // send, and that send may reuse this very flight.
    DeliverFn deliver = std::move(flight->deliver);
    releaseFlight(flight);
    deliver();
}

void
Network::traceDelivery(const Flight &flight)
{
    // One instant per delivered message, named by traffic class; the
    // src/dst endpoints are packed into the event id so a hop of a
    // traced request can be located in the args.
    UMANY_TRACE(TraceSink::active()->instant(
        curTick(), tracePid_, traceIcnTrack,
        msgClassName(flight.msg.cls),
        (static_cast<std::uint64_t>(flight.msg.src) << 32) |
            flight.msg.dst,
        static_cast<double>(flight.msg.bytes)));
}

double
Network::meanLinkUtilization() const
{
    const Tick window = curTick() - statsEpochTick_;
    if (window == 0)
        return 0.0;
    double total = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (topo_.links()[i].access)
            continue;
        total += static_cast<double>(state_[i].busyTime) /
                 static_cast<double>(window);
        ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

std::size_t
Network::fabricLinkCount() const
{
    std::size_t n = 0;
    for (const auto &link : topo_.links())
        if (!link.access)
            ++n;
    return n;
}

double
Network::maxLinkUtilization() const
{
    const Tick window = curTick() - statsEpochTick_;
    if (window == 0)
        return 0.0;
    double best = 0.0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (topo_.links()[i].access)
            continue;
        best = std::max(best, static_cast<double>(state_[i].busyTime) /
                                  static_cast<double>(window));
    }
    return best;
}

void
Network::clearStats()
{
    for (auto &st : state_) {
        st.messages = 0;
        st.bytes = 0;
        st.busyTime = 0;
        st.queueDelay = 0;
    }
    sent_ = 0;
    delivered_ = 0;
    droppedNoPath_ = 0;
    reroutes_ = 0;
    degraded_ = 0;
    latency_ = Histogram();
    queueDelay_ = Histogram();
    // Utilization denominators run from here, and flights sent
    // before the clear no longer count as deliveries in this window.
    statsEpochTick_ = curTick();
    ++epoch_;
}

} // namespace umany
