/**
 * @file
 * Tail profiler: "why is P99.9 slow", per root endpoint.
 *
 * Completed roots stream in; for each endpoint the profiler keeps a
 * bounded min-heap of the top-k slowest roots (with their extracted
 * critical paths), plus mergeable log-bucketed histograms of latency
 * and of every critical-path component. The report ranks components
 * by the time they contribute to the retained tail captures — the
 * top-ranked entry is the answer to "what made the slowest requests
 * slow".
 */

#ifndef UMANY_OBS_TAIL_PROFILER_HH
#define UMANY_OBS_TAIL_PROFILER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/span_tree.hh"
#include "stats/histogram.hh"

namespace umany
{

/** Resolves service ids to names for reports (may return ""). */
using ServiceNamer = std::function<std::string(ServiceId)>;

/** One retained slow root. */
struct TailCapture
{
    RequestId id = 0;
    Tick latency = 0;
    CriticalPath path;
};

class TailProfiler
{
  public:
    explicit TailProfiler(std::size_t top_k = 32);

    void setTopK(std::size_t k) { topK_ = k == 0 ? 1 : k; }
    std::size_t topK() const { return topK_; }

    /** Ingest one completed root (latency in ticks). */
    void ingest(const AttribRecord &root, Tick latency,
                const RecordLookup &lookup);

    /** Per-endpoint tail state. */
    struct EndpointProfile
    {
        std::uint64_t roots = 0;
        Histogram latencyTicks;
        /** Critical-path component histograms over ALL roots. */
        std::array<Histogram, kNumAttribComps> pathTicks;
        /** Component totals over ALL roots (exact sums). */
        std::array<Tick, kNumAttribComps> pathTotal{};
        /** Top-k slowest roots, min-heap order by (latency, id). */
        std::vector<TailCapture> captures;

        /** Component totals over the retained captures only. */
        std::array<Tick, kNumAttribComps> tailTotal() const;
        /** Captures sorted slowest-first. */
        std::vector<const TailCapture *> sortedCaptures() const;
    };

    const std::map<ServiceId, EndpointProfile> &endpoints() const
    {
        return endpoints_;
    }
    std::uint64_t roots() const { return roots_; }

    /**
     * Components ranked by the ticks they contribute to the retained
     * tail captures of `ep` (or across all endpoints when
     * ep == invalidId), descending.
     */
    std::vector<std::pair<AttribComp, Tick>>
    rankedTail(ServiceId ep = invalidId) const;

    /**
     * Component totals over the retained tail captures, bucketed by
     * @p group of each capture's root id. Rack runs group by the
     * package encoded in the id (id >> 44) to answer "which package
     * and which ledger component is slow".
     */
    std::map<std::uint64_t, std::array<Tick, kNumAttribComps>>
    groupedTail(
        const std::function<std::uint64_t(RequestId)> &group) const;

    /** Human-readable ranked report. */
    std::string reportText(const ServiceNamer &name) const;

    /**
     * Machine-readable tail profile (schema in EXPERIMENTS.md).
     * When @p extra_key is non-empty, @p extra_raw (a pre-rendered
     * JSON value) is spliced into the top-level object under that
     * key — the rack runner adds its per-package ranking here.
     */
    std::string toJson(const ServiceNamer &name,
                       const std::string &extra_key = "",
                       const std::string &extra_raw = "") const;

  private:
    std::size_t topK_;
    std::uint64_t roots_ = 0;
    std::map<ServiceId, EndpointProfile> endpoints_;
};

} // namespace umany

#endif // UMANY_OBS_TAIL_PROFILER_HH
