#include "driver/perf_trend.hh"

#include <cmath>

#include "obs/json.hh"
#include "stats/table.hh"

namespace umany
{

namespace
{

/** Resolve a dotted path ("kernel.fifo_64k.events_per_sec"). */
const JsonValue *
lookup(const JsonValue &root, const std::string &path)
{
    const JsonValue *v = &root;
    std::size_t pos = 0;
    while (pos < path.size()) {
        const std::size_t dot = path.find('.', pos);
        const std::size_t end =
            dot == std::string::npos ? path.size() : dot;
        v = v->find(path.substr(pos, end - pos));
        if (v == nullptr)
            return nullptr;
        pos = end + 1;
    }
    return v->isNumber() ? v : nullptr;
}

} // namespace

const std::vector<PerfMetricSpec> &
perfMetricSpecs()
{
    // Gated: kernel throughput and allocation behaviour (stable on
    // one host) plus the fixed full-stack run. Informational: load-
    // dependent workload numbers and the parallel-scaling probe,
    // which depend on runner load and core count.
    static const std::vector<PerfMetricSpec> specs = {
        {"kernel.fifo_64k.events_per_sec",
         PerfDirection::HigherIsBetter, true, 0.0},
        {"kernel.random_64k.events_per_sec",
         PerfDirection::HigherIsBetter, true, 0.0},
        {"kernel.chain_100k.events_per_sec",
         PerfDirection::HigherIsBetter, true, 0.0},
        {"kernel.fifo_64k.allocs_per_event",
         PerfDirection::LowerIsBetter, true, 0.25},
        {"kernel.random_64k.allocs_per_event",
         PerfDirection::LowerIsBetter, true, 0.25},
        {"kernel.chain_100k.allocs_per_event",
         PerfDirection::LowerIsBetter, true, 0.25},
        {"fig14_small.wall_ms", PerfDirection::LowerIsBetter, true,
         0.0},
        {"fig14_small.events_per_sec",
         PerfDirection::HigherIsBetter, true, 0.0},
        {"fig14_small.throughput_rps",
         PerfDirection::HigherIsBetter, false, 0.0},
        {"fig14_small.p99_ms", PerfDirection::LowerIsBetter, false,
         0.0},
        {"sweep.wall_ms_jobs1", PerfDirection::LowerIsBetter, false,
         0.0},
        {"sweep.speedup", PerfDirection::HigherIsBetter, false,
         0.0},
    };
    return specs;
}

PerfTrendResult
comparePerf(const std::string &baseline_json,
            const std::string &current_json, double threshold)
{
    PerfTrendResult r;
    JsonValue base;
    JsonValue cur;
    std::string err;
    if (!jsonParse(baseline_json, base, &err)) {
        r.error = "baseline: " + err;
        return r;
    }
    if (!jsonParse(current_json, cur, &err)) {
        r.error = "current: " + err;
        return r;
    }
    for (const JsonValue *doc : {&base, &cur}) {
        const JsonValue *schema = doc->find("schema");
        if (schema == nullptr || !schema->isString() ||
            schema->str != "umany-perf-smoke-v1") {
            r.error = "not a umany-perf-smoke-v1 document";
            return r;
        }
    }

    for (const PerfMetricSpec &spec : perfMetricSpecs()) {
        PerfDelta d;
        d.path = spec.path;
        d.gated = spec.gated;
        const JsonValue *b = lookup(base, spec.path);
        const JsonValue *c = lookup(cur, spec.path);
        if (b == nullptr || c == nullptr) {
            // A missing metric is reported but never gates: it means
            // a schema drift, and the schema check above already
            // guards against comparing unrelated documents.
            d.missing = true;
            r.deltas.push_back(std::move(d));
            continue;
        }
        d.baseline = b->number;
        d.current = c->number;
        const double signedDelta =
            spec.dir == PerfDirection::HigherIsBetter
                ? d.current - d.baseline
                : d.baseline - d.current;
        d.changeFrac = d.baseline != 0.0
                           ? signedDelta / std::abs(d.baseline)
                           : 0.0;
        // Regression: worsening beyond both the relative threshold
        // and the absolute slack. With baseline 0 only the slack
        // applies (relative change against zero is meaningless).
        const double worsening = -signedDelta;
        const bool beyondRel =
            d.baseline != 0.0 &&
            worsening > threshold * std::abs(d.baseline);
        const bool beyondAbs = worsening > spec.absSlack;
        d.regressed = beyondAbs && (d.baseline == 0.0
                                        ? spec.absSlack > 0.0
                                        : beyondRel);
        if (d.gated && d.regressed)
            r.regressed = true;
        r.deltas.push_back(std::move(d));
    }
    return r;
}

std::string
perfTrendTable(const PerfTrendResult &r)
{
    if (!r.error.empty())
        return "perf_trend error: " + r.error + "\n";
    Table t({"metric", "baseline", "current", "change", "verdict"});
    for (const PerfDelta &d : r.deltas) {
        if (d.missing) {
            t.addRow({d.path, "-", "-", "-", "missing"});
            continue;
        }
        const char *verdict =
            d.regressed ? (d.gated ? "REGRESSED" : "regressed (info)")
                        : "ok";
        t.addRow({d.path, Table::num(d.baseline, 3),
                  Table::num(d.current, 3),
                  Table::num(d.changeFrac * 100.0, 1) + "%",
                  verdict});
    }
    return t.format();
}

} // namespace umany
