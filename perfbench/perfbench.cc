/**
 * @file
 * The benchmark driver behind run.py. One process runs one workload
 * on one thread and prints one JSON document on stdout.
 *
 *   pb_time  --workload W --seed N --seconds S [--reduced]
 *   pb_trace --workload W --seed N --tmp DIR [--reduced]
 *
 * pb_time: the paper run once, for its outputs and peak memory, then
 * the public call over a slice of that run, with no observability on,
 * repeated with a batch of set-ups before and the yardstick
 * (calibrate.hh) after each call until S host seconds have passed.
 * Each repetition reports its wall time and its simulated outputs.
 *
 * pb_trace (the same code with allocation counting linked in), on the
 * slice: rounds of a plain call, a call with the simulator self-profile
 * on (written into DIR) and a call with the attribution ledger toggled,
 * then the contention-free oracle, and the layer harnesses. Its counts come
 * from the profile's per-source event counts and the StatsDump; its
 * times come from the harnesses, never from the profile's per-source
 * host time (which is a share of events, not a cost).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alloc.hh"
#include "arch/presets.hh"
#include "calibrate.hh"
#include "harness.hh"
#include "obs/json.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace umany;
using namespace pb;

namespace
{

using Clock = std::chrono::steady_clock;

struct Args
{
    /** pb_trace traces; pb_time, which must not pay for allocation
     *  counting, times. */
    bool trace = allocsCounted();
    std::string workload;
    std::uint64_t seed = kHeadlineSeed;
    double seconds = 10.0;
    std::string tmp;
    bool reduced = false;
};

[[noreturn]] void
usage(const char *why)
{
    fatal("%s\nusage: pb_time --workload W --seed N --seconds S "
          "[--reduced]\n"
          "       pb_trace --workload W --seed N --tmp DIR [--reduced]",
          why);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage(strprintf("%s: not a whole number: '%s'", flag.c_str(),
                        text.c_str())
                  .c_str());
    return v;
}

/** Strict parser: every flag is known, every value is checked. */
Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--reduced") {
            a.reduced = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(strprintf("%s needs a value", flag.c_str()).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUint(flag, v);
        } else if (flag == "--seconds" && !a.trace) {
            a.seconds = static_cast<double>(parseUint(flag, v));
        } else if (flag == "--tmp" && a.trace) {
            a.tmp = v;
        } else {
            usage(strprintf("unknown flag '%s'", flag.c_str()).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) ==
        names.end()) {
        usage(strprintf("unknown workload '%s'", a.workload.c_str())
                  .c_str());
    }
    if (!a.trace && a.seconds < 1.0)
        usage("--seconds must be at least 1");
    if (a.trace && a.tmp.empty())
        usage("pb_trace needs --tmp");
    return a;
}

/**
 * The process's peak resident set so far, in MiB: VmHWM, because
 * getrusage's ru_maxrss survives exec and so reports the launching
 * process's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    fatal("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
writeOutputs(JsonWriter &w, double wall_s, const Outputs &o)
{
    w.beginObject();
    w.key("wall_s").value(wall_s);
    w.key("values").beginObject();
    for (const auto &[name, v] : o.values)
        w.key(name).value(v);
    w.endObject();
    w.key("digest").value(o.digest);
    w.key("violations").beginArray();
    for (const std::string &s : o.violations)
        w.value(s);
    w.endArray();
    w.endObject();
}

void
beginDocument(JsonWriter &w, const WorkloadSpec &spec)
{
    w.beginObject();
    w.key("config").raw(specJson(spec));
    w.key("build").beginObject();
    w.key("type").value(PB_BUILD_TYPE);
    w.key("compiler").value(PB_COMPILER);
    w.endObject();
}

int
timeMode(const Args &a, const WorkloadSpec &spec, const WorkloadSpec &paper)
{
    // The paper run first, once: its outputs are the paper's results,
    // checked against the laws, and the peak resident set after it is
    // the memory a user of that run sees.
    const Call ref = runWorkload(paper, ObsConfig{}, attribByDefault(paper));
    const double peakRss = peakRssMb();

    // Every call and every batch of set-ups sits between two timings
    // of the yardstick, which say how fast the host ran around it.
    std::vector<std::vector<double>> setups;
    std::vector<double> walls;
    std::vector<double> calibs{calibrate()};
    std::vector<Outputs> outs;
    const Clock::time_point t0 = Clock::now();
    do {
        // Set-up takes milliseconds. A batch before every call makes
        // the set-ups sample the same stretch of host time as the
        // calls, not one burst at the start.
        std::vector<double> &batch = setups.emplace_back();
        double spent = 0.0;
        while (batch.size() < 3 || spent < 0.02) {
            batch.push_back(setupOnce(spec));
            spent += batch.back();
        }
        Call c = runWorkload(spec, ObsConfig{}, attribByDefault(spec));
        walls.push_back(c.wallS);
        outs.push_back(std::move(c.out));
        calibs.push_back(calibrate());
    } while (std::chrono::duration<double>(Clock::now() - t0).count() <
                 a.seconds &&
             !a.reduced);

    JsonWriter w;
    beginDocument(w, spec);
    w.key("paper_config").raw(specJson(paper));
    w.key("calib_s").beginArray();
    for (const double s : calibs)
        w.value(s);
    w.endArray();
    w.key("setup_s").beginArray();
    for (const auto &batch : setups) {
        w.beginArray();
        for (const double s : batch)
            w.value(s);
        w.endArray();
    }
    w.endArray();
    w.key("reps").beginArray();
    for (std::size_t i = 0; i < walls.size(); ++i)
        writeOutputs(w, walls[i], outs[i]);
    w.endArray();
    w.key("peak_rss_mb").value(peakRss);
    // The paper run and, on sc_qos, a runExperiment at its answer:
    // runs with no repetition to agree with, only laws to keep.
    w.key("checks").beginArray();
    writeOutputs(w, ref.wallS, ref.out);
    if (paper.id == WorkloadId::ScQos)
        writeOutputs(w, 0.0, checkQosAnswer(paper, ref.qos));
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/** What one simulator self-profile reports, summed over runs. */
struct Profile
{
    std::map<std::string, double> events; //!< Per event source.
    double total = 0.0;
    double weightedP50 = 0.0; //!< Queue occupancy, event-weighted.
    double weightedP99 = 0.0;

    void
    addFile(const std::string &path)
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        JsonValue doc;
        std::string err;
        if (!in || !jsonParse(ss.str(), doc, &err))
            fatal("cannot read sim profile '%s': %s", path.c_str(),
                  err.c_str());
        const JsonValue *ev = doc.find("events");
        const JsonValue *occ =
            doc.find("queue") ? doc.find("queue")->find("occupancy")
                              : nullptr;
        if (ev == nullptr || ev->find("per_source") == nullptr ||
            occ == nullptr || occ->find("p50") == nullptr) {
            fatal("sim profile '%s' lacks events or queue occupancy",
                  path.c_str());
        }
        double runTotal = 0.0;
        for (const JsonValue &src : ev->find("per_source")->items) {
            const double n = src.find("events")->number;
            events[src.find("source")->str] += n;
            runTotal += n;
        }
        total += runTotal;
        weightedP50 += runTotal * occ->find("p50")->number;
        weightedP99 += runTotal * occ->find("p99")->number;
    }

    double
    count(const std::string &src) const
    {
        const auto it = events.find(src);
        return it == events.end() ? 0.0 : it->second;
    }
};

/** Counts the traced run takes from a StatsDump, summed over runs. */
struct StatCounts
{
    double simEvents = 0.0;
    double rootsCompleted = 0.0;
    double nocMessages = 0.0;
    double topnicMsgs = 0.0;
    double contextSwitches = 0.0;
    double dispatcherOps = 0.0;

    void
    add(const Outputs &o, const StatsDump &st)
    {
        for (const auto &[name, v] : o.values) {
            if (name == "sim_events")
                simEvents += v;
            else if (name == "roots_completed")
                rootsCompleted += v;
        }
        nocMessages += sumStat(st, "net.messages");
        topnicMsgs += sumStat(st, "topnic.ingress_msgs") +
                      sumStat(st, "topnic.egress_msgs");
        contextSwitches += sumStat(st, "cores.context_switches");
        dispatcherOps += sumStat(st, "sched.dispatcher_ops");
    }
};

/** What the traced call measures besides its outputs and time. */
struct TraceData
{
    Profile prof;
    StatCounts counts;
    StatsDump stats; //!< Empty on sc_qos: its probes are summed.
    std::uint64_t allocs = 0;
    AttribResult ledger;
    std::vector<double> cfa; //!< Oracle timings.
};

/**
 * One call with the simulator self-profile on. sc_qos replays its
 * search so that each probe writes its own profile; the others make
 * their timed call. When @p data is non-null, the call's counts,
 * allocations and profiles are collected into it.
 */
Call
tracedCall(const Args &a, const WorkloadSpec &spec, TraceData *data)
{
    TraceData scratch;
    TraceData &d = data != nullptr ? *data : scratch;
    if (spec.id != WorkloadId::ScQos) {
        ObsConfig obs;
        obs.simProfile = a.tmp + "/profile.json";
        const std::uint64_t a0 = allocsNow();
        Call c = runWorkload(spec, obs, attribByDefault(spec));
        d.allocs = allocsNow() - a0;
        d.counts.add(c.out, c.stats);
        d.prof.addFile(obs.simProfile);
        d.stats = c.stats;
        if (c.attrib.enabled)
            d.ledger = c.attrib;
        return c;
    }

    Call c;
    std::vector<std::string> violations;
    std::vector<std::string> profiles;
    const Clock::time_point t0 = Clock::now();
    const auto averages = contentionFree(spec);
    d.cfa.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    // The oracle's events are not in the probes' counts; neither are
    // its allocations.
    const std::uint64_t a0 = allocsNow();
    c.qos = replayQosSearch(
        spec, averages,
        [&](std::size_t i) {
            ObsConfig obs;
            obs.simProfile =
                strprintf("%s/probe%zu.json", a.tmp.c_str(), i);
            profiles.push_back(obs.simProfile);
            return obs;
        },
        [&](std::size_t i, const RunMetrics &m, const StatsDump &st) {
            const Outputs o = outputsOf(m, st);
            for (const std::string &v : o.violations)
                violations.push_back(
                    strprintf("probe %zu: %s", i, v.c_str()));
            d.counts.add(o, st);
        });
    c.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    d.allocs = allocsNow() - a0;
    for (const std::string &path : profiles)
        d.prof.addFile(path);
    c.out = qosOutputs(c.qos);
    c.out.violations.insert(c.out.violations.end(), violations.begin(),
                            violations.end());
    return c;
}

/** Rounds of (plain, traced, attribution-toggled) calls. */
constexpr int kTraceRounds = 5;

int
traceMode(const Args &a, const WorkloadSpec &spec)
{
    // The overhead ratios compare calls made in the same stretch of
    // host time, interleaved, fastest against fastest.
    TraceData d;
    std::vector<Call> plain;
    std::vector<Call> traced;
    std::vector<Call> toggled;
    for (int r = 0; r < kTraceRounds; ++r) {
        plain.push_back(
            runWorkload(spec, ObsConfig{}, attribByDefault(spec)));
        traced.push_back(tracedCall(a, spec, r == 0 ? &d : nullptr));
        toggled.push_back(
            runWorkload(spec, ObsConfig{}, !attribByDefault(spec)));
        if (toggled.back().attrib.enabled)
            d.ledger = toggled.back().attrib;
    }

    // The contention-free oracle, timed on its own.
    while (d.cfa.size() < 3) {
        const Clock::time_point o0 = Clock::now();
        contentionFree(spec);
        d.cfa.push_back(
            std::chrono::duration<double>(Clock::now() - o0).count());
    }

    const MachineParams machine = spec.id == WorkloadId::Rack4Attrib
                                      ? spec.rack.base.machine
                                      : spec.exp.machine;
    const Profile &prof = d.prof;
    const double depth =
        prof.total > 0.0 ? prof.weightedP50 / prof.total : 0.0;
    const OpCost kernel =
        kernelCost(static_cast<std::size_t>(std::llround(depth)));
    const OpCost noc = nocCost(machine);
    const OpCost hwrq = hwrqCost();
    const OpCost swq = swqCost(serverClassParams());

    const auto fastest = [](const std::vector<Call> &calls) {
        double best = calls.front().wallS;
        for (const Call &c : calls)
            best = std::min(best, c.wallS);
        return best;
    };
    const double attribOn =
        fastest(attribByDefault(spec) ? plain : toggled);
    const double attribOff =
        fastest(attribByDefault(spec) ? toggled : plain);

    const double events = d.counts.simEvents;
    const double hops = prof.count("noc_hop") + prof.count("noc_deliver");
    double lbDispatches = 0.0;
    for (std::uint32_t p = 0; p < spec.rack.rack.packages; ++p) {
        const std::string name = strprintf("rack.lb.pkg%u.dispatches", p);
        if (d.stats.has(name))
            lbDispatches += d.stats.value(name);
    }
    const auto rackStat = [&d](const char *name) {
        return d.stats.has(name) ? d.stats.value(name) : 0.0;
    };

    const std::vector<std::pair<const char *, double>> layers = {
        {"sim.events", events},
        {"sim.allocs_per_event",
         events > 0.0 ? static_cast<double>(d.allocs) / events : 0.0},
        {"sim.queue_p50", depth},
        {"sim.queue_p99",
         prof.total > 0.0 ? prof.weightedP99 / prof.total : 0.0},
        {"sim.kernel_ns_per_event", kernel.nsPerOp},
        {"noc.messages", d.counts.nocMessages},
        {"noc.hop_events", prof.count("noc_hop")},
        {"noc.deliver_events", prof.count("noc_deliver")},
        {"noc.hops_per_msg",
         d.counts.nocMessages > 0.0 ? hops / d.counts.nocMessages : 0.0},
        {"noc.ns_per_msg", noc.nsPerOp},
        {"noc.allocs_per_msg", noc.allocsPerOp},
        {"rpc.nic_events", prof.count("rpc_nic")},
        {"rpc.external_events", prof.count("net_external")},
        {"rpc.topnic_msgs", d.counts.topnicMsgs},
        {"sched.dispatch_events", prof.count("sched_dispatch")},
        {"sched.ctx_switch_events", prof.count("ctx_switch")},
        {"sched.context_switches", d.counts.contextSwitches},
        {"sched.dispatcher_ops", d.counts.dispatcherOps},
        {"sched.hwrq_ns_per_op", hwrq.nsPerOp},
        {"sched.swq_ns_per_op", swq.nsPerOp},
        {"cpu.core_run_events", prof.count("core_run")},
        {"mem.coherence_events", prof.count("mem_coherence")},
        {"workload.loadgen_events", prof.count("loadgen")},
        {"workload.roots_completed", d.counts.rootsCompleted},
        {"driver.cfa_s", median(d.cfa)},
        {"obs.attrib_overhead_x", attribOn / attribOff},
        {"obs.ledger_mismatches",
         static_cast<double>(d.ledger.ledgerMismatches)},
        {"obs.roots_profiled", static_cast<double>(d.ledger.roots)},
        {"obs.trace_overhead_x", fastest(traced) / fastest(plain)},
        {"rack.lb_dispatches", lbDispatches},
        {"rack.lb_sheds", rackStat("rack.lb.shedRoots")},
        {"rack.net_messages", rackStat("rack.net.messages")},
        {"rack.hop_count", rackStat("rack.hop.count")},
    };

    JsonWriter w;
    beginDocument(w, spec);
    w.key("runs").beginArray();
    for (const auto *calls : {&plain, &traced, &toggled}) {
        for (const Call &c : *calls)
            writeOutputs(w, c.wallS, c.out);
    }
    w.endArray();
    w.key("oracle_in_call").value(spec.id == WorkloadId::ScQos);
    w.key("layers").beginObject();
    for (const auto &[name, v] : layers)
        w.key(name).value(v);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    setInformEnabled(false);
    const WorkloadSpec spec = makeSpec(a.workload, a.seed, Window::Slice);
    if (a.trace)
        return traceMode(a, spec);
    // --reduced (the self-test) skips the paper run's windows.
    return timeMode(a, spec,
                    makeSpec(a.workload, a.seed,
                             a.reduced ? Window::Slice : Window::Paper));
}
