#include "workload/loadgen.hh"

#include "sim/logging.hh"

namespace umany
{

LoadGenerator::LoadGenerator(EventQueue &eq,
                             const ServiceCatalog &catalog,
                             const LoadGenParams &p, SubmitFn submit)
    : eq_(eq), catalog_(catalog), p_(p), submit_(std::move(submit)),
      pickRng_(streamSeed(p.seed, rngstream::endpoint))
{
    if (p_.rps <= 0.0)
        fatal("load generator rate must be positive (got %f)", p_.rps);
    if (p_.streams < 1)
        fatal("load generator needs at least one arrival stream");
    endpoints_ = catalog_.endpoints();
    if (endpoints_.empty())
        fatal("load generator needs at least one endpoint service");
    for (const ServiceId id : endpoints_) {
        totalWeight_ += catalog_.at(id).mixWeight;
        cumWeight_.push_back(totalWeight_);
    }
    // Stream 0 keeps the historical seeds exactly (golden
    // stability); extra streams derive theirs from stream 0's.
    const std::uint64_t arrival0 = streamSeed(p_.seed,
                                              rngstream::arrival);
    const std::uint64_t burst0 = streamSeed(p_.seed, rngstream::burst);
    const double stream_rps =
        p_.rps / static_cast<double>(p_.streams);
    for (std::uint32_t s = 0; s < p_.streams; ++s) {
        Stream &st = streams_.emplace_back();
        st.rng = Rng(s == 0 ? arrival0 : streamSeed(arrival0, s));
        if (p_.kind != ArrivalKind::Bursty)
            continue;
        // Normalize the state multipliers so the stay-weighted
        // average rate equals the requested per-stream mean rate.
        double weighted = 0.0;
        double stay_sum = 0.0;
        for (const auto &[mult, stay] : p_.burstStates) {
            weighted += mult * stay;
            stay_sum += stay;
        }
        const double norm = weighted / stay_sum;
        std::vector<Mmpp::State> states;
        for (const auto &[mult, stay] : p_.burstStates)
            states.push_back(
                Mmpp::State{stream_rps * mult / norm, stay});
        st.mmpp.emplace(states,
                        s == 0 ? burst0 : streamSeed(burst0, s));
    }
}

Tick
LoadGenerator::Stream::next(Tick from, double mean_gap_sec)
{
    const double gap_sec =
        mmpp ? mmpp->nextInterarrival() : rng.expMean(mean_gap_sec);
    return from + fromSec(gap_sec);
}

double
LoadGenerator::meanGapSec() const
{
    return 1.0 / (p_.rps / static_cast<double>(p_.streams));
}

ServiceId
LoadGenerator::pickEndpoint()
{
    const double u = pickRng_.uniform(0.0, totalWeight_);
    for (std::size_t i = 0; i < cumWeight_.size(); ++i) {
        if (u < cumWeight_[i])
            return endpoints_[i];
    }
    return endpoints_.back();
}

void
LoadGenerator::start()
{
    for (std::uint32_t s = 0; s < p_.streams; ++s)
        scheduleNext(s, p_.start);
}

std::uint64_t
LoadGenerator::countArrivals() const
{
    std::uint64_t n = 0;
    for (Stream st : streams_) {
        for (Tick t = st.next(p_.start, meanGapSec()); t < p_.stop;
             t = st.next(t, meanGapSec()))
            ++n;
    }
    return n;
}

void
LoadGenerator::scheduleNext(std::uint32_t stream, Tick from)
{
    const Tick when = streams_[stream].next(from, meanGapSec());
    if (when >= p_.stop)
        return;
    eq_.schedule(when, EvTag{EvSrc::LoadGen},
                 [this, stream, when]() {
        ++generated_;
        submit_(pickEndpoint());
        scheduleNext(stream, when);
    });
}

} // namespace umany
