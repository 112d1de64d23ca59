#include "obs/tail_profiler.hh"

#include <algorithm>

#include "obs/json.hh"
#include "sim/logging.hh"

namespace umany
{

namespace
{

/** Min-heap order: the weakest capture (to evict first) at front. */
bool
heapOrder(const TailCapture &a, const TailCapture &b)
{
    if (a.latency != b.latency)
        return a.latency > b.latency;
    return a.id > b.id;
}

bool
beatsFront(const TailCapture &front, Tick latency, RequestId id)
{
    if (front.latency != latency)
        return front.latency < latency;
    return front.id < id;
}

std::string
nameOrId(const ServiceNamer &name, ServiceId s)
{
    std::string n = name ? name(s) : std::string();
    if (n.empty())
        n = strprintf("service%u", s);
    return n;
}

} // namespace

TailProfiler::TailProfiler(std::size_t top_k)
    : topK_(top_k == 0 ? 1 : top_k)
{
}

std::array<Tick, kNumAttribComps>
TailProfiler::EndpointProfile::tailTotal() const
{
    std::array<Tick, kNumAttribComps> total{};
    for (const TailCapture &c : captures) {
        for (std::size_t i = 0; i < kNumAttribComps; ++i)
            total[i] += c.path.comp[i];
    }
    return total;
}

std::vector<const TailCapture *>
TailProfiler::EndpointProfile::sortedCaptures() const
{
    std::vector<const TailCapture *> out;
    out.reserve(captures.size());
    for (const TailCapture &c : captures)
        out.push_back(&c);
    std::sort(out.begin(), out.end(),
              [](const TailCapture *a, const TailCapture *b) {
        if (a->latency != b->latency)
            return a->latency > b->latency;
        return a->id < b->id;
    });
    return out;
}

void
TailProfiler::ingest(const AttribRecord &root, Tick latency,
                     const RecordLookup &lookup)
{
    const ServiceId ep = root.rootEndpoint != invalidId
                             ? root.rootEndpoint
                             : root.service;
    EndpointProfile &prof = endpoints_[ep];
    prof.roots += 1;
    roots_ += 1;
    prof.latencyTicks.add(latency);

    CriticalPath path = extractCriticalPath(root, lookup);
    for (std::size_t i = 0; i < kNumAttribComps; ++i) {
        prof.pathTicks[i].add(path.comp[i]);
        prof.pathTotal[i] += path.comp[i];
    }

    if (prof.captures.size() < topK_) {
        prof.captures.push_back(
            TailCapture{root.id, latency, std::move(path)});
        std::push_heap(prof.captures.begin(), prof.captures.end(),
                       heapOrder);
        return;
    }
    if (!beatsFront(prof.captures.front(), latency, root.id))
        return;
    std::pop_heap(prof.captures.begin(), prof.captures.end(),
                  heapOrder);
    prof.captures.back() = TailCapture{root.id, latency,
                                       std::move(path)};
    std::push_heap(prof.captures.begin(), prof.captures.end(),
                   heapOrder);
}

std::vector<std::pair<AttribComp, Tick>>
TailProfiler::rankedTail(ServiceId ep) const
{
    std::array<Tick, kNumAttribComps> total{};
    for (const auto &[id, prof] : endpoints_) {
        if (ep != invalidId && id != ep)
            continue;
        const auto tail = prof.tailTotal();
        for (std::size_t i = 0; i < kNumAttribComps; ++i)
            total[i] += tail[i];
    }
    std::vector<std::pair<AttribComp, Tick>> ranked;
    ranked.reserve(kNumAttribComps);
    for (std::size_t i = 0; i < kNumAttribComps; ++i)
        ranked.emplace_back(static_cast<AttribComp>(i), total[i]);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return ranked;
}

std::map<std::uint64_t, std::array<Tick, kNumAttribComps>>
TailProfiler::groupedTail(
    const std::function<std::uint64_t(RequestId)> &group) const
{
    std::map<std::uint64_t, std::array<Tick, kNumAttribComps>> out;
    for (const auto &[ep, prof] : endpoints_) {
        for (const TailCapture &cap : prof.captures) {
            auto &total = out[group(cap.id)];
            for (std::size_t i = 0; i < kNumAttribComps; ++i)
                total[i] += cap.path.comp[i];
        }
    }
    return out;
}

std::string
TailProfiler::reportText(const ServiceNamer &name) const
{
    std::string out = strprintf(
        "tail profile: %llu roots, top-%zu captures per endpoint\n",
        static_cast<unsigned long long>(roots_), topK_);
    for (const auto &[ep, prof] : endpoints_) {
        const Histogram &lat = prof.latencyTicks;
        out += strprintf(
            "endpoint %s: %llu roots, p50 %.1f us, p99 %.1f us, "
            "p99.9 %.1f us, max %.1f us\n",
            nameOrId(name, ep).c_str(),
            static_cast<unsigned long long>(prof.roots),
            toUs(lat.quantile(0.50)), toUs(lat.quantile(0.99)),
            toUs(lat.quantile(0.999)), toUs(lat.max()));
        const auto ranked = rankedTail(ep);
        Tick sum = 0;
        for (const auto &[c, t] : ranked)
            sum += t;
        int rank = 1;
        for (const auto &[c, t] : ranked) {
            if (t == 0)
                break;
            out += strprintf(
                "  #%d %-15s %12.1f us  %5.1f%%\n", rank,
                attribCompName(c), toUs(t),
                sum ? 100.0 * static_cast<double>(t) /
                          static_cast<double>(sum)
                    : 0.0);
            rank += 1;
        }
        const auto slow = prof.sortedCaptures();
        if (!slow.empty()) {
            const TailCapture &worst = *slow.front();
            out += strprintf("  slowest: req %llu, %.1f us, path",
                             static_cast<unsigned long long>(
                                 worst.id),
                             toUs(worst.latency));
            for (const CriticalStep &s : worst.path.steps) {
                out += strprintf(
                    " %s %s(%s %.1f us)",
                    s.depth == 0 ? "" : "->",
                    nameOrId(name, s.service).c_str(),
                    attribCompName(s.selfTop), toUs(s.selfTopTicks));
            }
            out += "\n";
        }
    }
    return out;
}

std::string
TailProfiler::toJson(const ServiceNamer &name,
                     const std::string &extra_key,
                     const std::string &extra_raw) const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("umany.tail_profile.v1");
    w.key("top_k").value(static_cast<std::uint64_t>(topK_));
    w.key("roots").value(roots_);
    w.key("components").beginArray();
    for (std::size_t i = 0; i < kNumAttribComps; ++i)
        w.value(attribCompName(static_cast<AttribComp>(i)));
    w.endArray();

    w.key("endpoints").beginArray();
    for (const auto &[ep, prof] : endpoints_) {
        w.beginObject();
        w.key("endpoint").value(nameOrId(name, ep));
        w.key("roots").value(prof.roots);

        const Histogram &lat = prof.latencyTicks;
        w.key("latency_us").beginObject();
        w.key("mean").value(toUs(static_cast<Tick>(lat.mean())));
        w.key("p50").value(toUs(lat.quantile(0.50)));
        w.key("p90").value(toUs(lat.quantile(0.90)));
        w.key("p99").value(toUs(lat.quantile(0.99)));
        w.key("p999").value(toUs(lat.quantile(0.999)));
        w.key("max").value(toUs(lat.max()));
        w.endObject();

        w.key("critical_path_us").beginObject();
        for (std::size_t i = 0; i < kNumAttribComps; ++i) {
            const auto c = static_cast<AttribComp>(i);
            w.key(attribCompName(c)).beginObject();
            w.key("total").value(toUs(prof.pathTotal[i]));
            w.key("mean").value(
                toUs(static_cast<Tick>(prof.pathTicks[i].mean())));
            w.key("p99").value(toUs(prof.pathTicks[i].quantile(0.99)));
            w.endObject();
        }
        w.endObject();

        w.key("ranked_tail").beginArray();
        const auto ranked = rankedTail(ep);
        Tick sum = 0;
        for (const auto &[c, t] : ranked)
            sum += t;
        for (const auto &[c, t] : ranked) {
            if (t == 0)
                break;
            w.beginObject();
            w.key("component").value(attribCompName(c));
            w.key("us").value(toUs(t));
            w.key("share").value(
                sum ? static_cast<double>(t) /
                          static_cast<double>(sum)
                    : 0.0);
            w.endObject();
        }
        w.endArray();

        w.key("top_roots").beginArray();
        for (const TailCapture *cap : prof.sortedCaptures()) {
            w.beginObject();
            w.key("id").value(static_cast<std::uint64_t>(cap->id));
            w.key("latency_us").value(toUs(cap->latency));
            w.key("path_us").beginObject();
            for (std::size_t i = 0; i < kNumAttribComps; ++i) {
                if (cap->path.comp[i] == 0)
                    continue;
                w.key(attribCompName(static_cast<AttribComp>(i)))
                    .value(toUs(cap->path.comp[i]));
            }
            w.endObject();
            w.key("steps").beginArray();
            for (const CriticalStep &s : cap->path.steps) {
                w.beginObject();
                w.key("service").value(nameOrId(name, s.service));
                w.key("depth").value(
                    static_cast<std::uint64_t>(s.depth));
                w.key("start_us").value(toUs(s.createdAt));
                w.key("end_us").value(toUs(s.resolvedAt));
                w.key("self_top").value(attribCompName(s.selfTop));
                w.key("self_top_us").value(toUs(s.selfTopTicks));
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    if (!extra_key.empty())
        w.key(extra_key).raw(extra_raw);
    w.endObject();
    return w.str();
}

} // namespace umany
