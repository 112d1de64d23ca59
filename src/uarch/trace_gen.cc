#include "uarch/trace_gen.hh"

#include <algorithm>
#include <unordered_map>

namespace umany
{

namespace
{

constexpr std::uint64_t kLine = 64;

/**
 * Function-sequence instruction model: functions are runs of
 * sequential lines; control flow follows a mostly-stable call graph.
 */
struct CodeModel
{
    struct Function
    {
        std::uint64_t base;       //!< First line address.
        std::uint32_t lines;      //!< Body length in lines.
        std::vector<std::uint32_t> callees; //!< Stable targets.
    };

    std::vector<Function> funcs;
    std::uint32_t current = 0;
    double wildJumpProb;

    CodeModel(Rng &rng, std::uint32_t num_funcs,
              std::uint32_t min_lines, std::uint32_t max_lines,
              std::uint32_t fanout, double wild, std::uint64_t base)
        : wildJumpProb(wild)
    {
        std::uint64_t next = base / kLine;
        for (std::uint32_t f = 0; f < num_funcs; ++f) {
            Function fn;
            fn.base = next;
            fn.lines = min_lines + static_cast<std::uint32_t>(
                rng.below(max_lines - min_lines + 1));
            next += fn.lines;
            funcs.push_back(fn);
        }
        for (auto &fn : funcs) {
            for (std::uint32_t k = 0; k < fanout; ++k) {
                fn.callees.push_back(static_cast<std::uint32_t>(
                    rng.below(num_funcs)));
            }
        }
    }

    /** Emit the current function's lines (looped), then jump. */
    void
    emit(Rng &rng, std::vector<std::uint64_t> &out)
    {
        const Function &fn = funcs[current];
        // Functions contain loops: the body re-executes a few
        // times per invocation, giving code its temporal locality.
        const std::uint32_t reps =
            1 + static_cast<std::uint32_t>(rng.below(7));
        for (std::uint32_t r = 0; r < reps; ++r) {
            for (std::uint32_t l = 0; l < fn.lines; ++l)
                out.push_back((fn.base + l) * kLine);
        }
        if (rng.chance(wildJumpProb)) {
            current = static_cast<std::uint32_t>(
                rng.below(funcs.size()));
        } else {
            current = fn.callees[rng.below(fn.callees.size())];
        }
    }
};

/** Static branch classes used to synthesize direction streams. */
enum class BranchClass : std::uint8_t
{
    Loop,       //!< Taken k times, then one not-taken.
    Correlated, //!< Direction = XOR of far-back history bits.
    Biased,     //!< Random with a strong bias.
};

struct StaticBranch
{
    std::uint64_t pc = 0;
    BranchClass cls = BranchClass::Biased;
    std::uint32_t period = 1; //!< Loop trip count.
    std::uint32_t counter = 0;
    double bias = 0.5;
    std::vector<unsigned> taps; //!< History positions (Correlated).
    bool invert = false;   //!< Invert the vote (keeps the global
                           //!< history mixed instead of collapsing
                           //!< into an all-taken fixed point).
};

} // namespace

UarchTrace
TraceGen::monolithic(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    UarchTrace tr;
    tr.dataAddrs.reserve(n);
    tr.instrAddrs.reserve(n);
    tr.branches.reserve(n);

    // --- Data: streaming + hot region + irregular, multi-MB. ---
    constexpr std::uint64_t streamRegion = 384ull << 10;
    constexpr std::uint64_t hotRegion = 16ull << 10;
    constexpr std::uint64_t randRegion = 8ull << 20;
    std::uint64_t streamPos[4] = {0, streamRegion, 2 * streamRegion,
                                  3 * streamRegion};
    const std::uint64_t streamStride[4] = {64, 64, 128, 256};
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        std::uint64_t addr;
        if (u < 0.40) {
            const std::size_t s = rng.below(4);
            streamPos[s] += streamStride[s];
            if (streamPos[s] >= (s + 1) * streamRegion)
                streamPos[s] = s * streamRegion;
            addr = 0x100000000ull + streamPos[s];
        } else if (u < 0.97) {
            addr = 0x200000000ull + rng.below(hotRegion);
        } else {
            addr = 0x300000000ull + rng.below(randRegion);
        }
        tr.dataAddrs.push_back(addr);
    }

    // --- Instructions: 512 functions, ~640 KB of code (thrashes a
    // 64 KB L1I) with recurring call sequences I-SPY can learn. ---
    CodeModel code(rng, 384, 6, 20, 3, 0.20, 0x400000000ull);
    while (tr.instrAddrs.size() < n)
        code.emit(rng, tr.instrAddrs);
    tr.instrAddrs.resize(n);

    // --- Branches: loops + long-range-correlated + biased. ---
    std::vector<StaticBranch> statics;
    for (std::uint32_t b = 0; b < 768; ++b) {
        StaticBranch sb;
        // Stride-4 PCs: distinct (pc >> 2) values index distinct
        // predictor entries, avoiding artificial aliasing.
        sb.pc = 0x500000000ull + b * 4;
        const double u = rng.uniform();
        if (u < 0.32) {
            sb.cls = BranchClass::Loop;
            sb.period = 8 + static_cast<std::uint32_t>(rng.below(56));
        } else if (u < 0.62) {
            sb.cls = BranchClass::Correlated;
            // Taps beyond a 12-bit g-share history, learnable by a
            // 32-bit perceptron.
            sb.taps = {3 + static_cast<unsigned>(rng.below(4)),
                       14 + static_cast<unsigned>(rng.below(6)),
                       22 + static_cast<unsigned>(rng.below(8))};
            sb.invert = b % 2 == 0;
        } else {
            sb.cls = BranchClass::Biased;
            sb.bias = 0.85;
        }
        statics.push_back(std::move(sb));
    }
    std::uint64_t history = 0;
    for (std::size_t i = 0; i < n; ++i) {
        StaticBranch &sb = statics[rng.below(statics.size())];
        bool taken;
        switch (sb.cls) {
          case BranchClass::Loop:
            taken = ++sb.counter % sb.period != 0;
            break;
          case BranchClass::Correlated: {
            // Majority vote over far-back history bits: linearly
            // separable (perceptron-learnable) but outside a
            // 12-bit g-share history.
            unsigned votes = 0;
            for (const unsigned t : sb.taps)
                votes += static_cast<unsigned>((history >> t) & 1);
            taken = (votes >= 2) != sb.invert;
            break;
          }
          case BranchClass::Biased:
          default:
            taken = rng.chance(sb.bias);
            break;
        }
        tr.branches.emplace_back(sb.pc, taken);
        history = (history << 1) | (taken ? 1 : 0);
    }

    return tr;
}

UarchTrace
TraceGen::microservice(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    UarchTrace tr;
    tr.dataAddrs.reserve(n);
    tr.instrAddrs.reserve(n);
    tr.branches.reserve(n);

    // --- Data: 0.5 MB handler footprint; 85% of accesses in a hot
    // 32 KB slice (fits L1D), occasional cold buffer touches. ---
    constexpr std::uint64_t hotBytes = 32ull << 10;
    constexpr std::uint64_t footBytes = 512ull << 10;
    std::uint64_t cold_ptr = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        std::uint64_t addr;
        if (u < 0.85) {
            addr = 0x100000000ull + rng.below(hotBytes);
        } else if (u < 0.98) {
            addr = 0x100000000ull + rng.below(footBytes);
        } else {
            // Fresh RPC buffer lines, touched once.
            addr = 0x300000000ull + cold_ptr;
            cold_ptr += kLine;
        }
        tr.dataAddrs.push_back(addr);
    }

    // --- Instructions: ~48 KB of code; fits the 64 KB L1I. ---
    CodeModel code(rng, 48, 8, 24, 3, 0.05, 0x400000000ull);
    while (tr.instrAddrs.size() < n)
        code.emit(rng, tr.instrAddrs);
    tr.instrAddrs.resize(n);

    // --- Branches: heavily biased checks + short loops. ---
    std::vector<StaticBranch> statics;
    for (std::uint32_t b = 0; b < 512; ++b) {
        StaticBranch sb;
        sb.pc = 0x500000000ull + b * 16;
        if (rng.uniform() < 0.80) {
            sb.cls = BranchClass::Biased;
            sb.bias = 0.97;
        } else {
            sb.cls = BranchClass::Loop;
            sb.period = 2 + static_cast<std::uint32_t>(rng.below(7));
        }
        statics.push_back(std::move(sb));
    }
    for (std::size_t i = 0; i < n; ++i) {
        StaticBranch &sb = statics[rng.below(statics.size())];
        bool taken;
        if (sb.cls == BranchClass::Loop)
            taken = ++sb.counter % sb.period != 0;
        else
            taken = rng.chance(sb.bias);
        tr.branches.emplace_back(sb.pc, taken);
    }

    return tr;
}

std::vector<std::uint64_t>
TraceGen::hotInstrLines(const UarchTrace &trace, double fraction,
                        std::uint32_t line_bytes)
{
    std::unordered_map<std::uint64_t, std::uint64_t> freq;
    for (const std::uint64_t a : trace.instrAddrs)
        ++freq[a / line_bytes];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> items(
        freq.begin(), freq.end());
    std::sort(items.begin(), items.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    const std::size_t keep = static_cast<std::size_t>(
        fraction * static_cast<double>(items.size()));
    std::vector<std::uint64_t> hot;
    hot.reserve(keep);
    for (std::size_t i = 0; i < keep && i < items.size(); ++i)
        hot.push_back(items[i].first);
    return hot;
}

} // namespace umany
