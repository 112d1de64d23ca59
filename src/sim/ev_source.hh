/**
 * @file
 * Event-source taxonomy for the simulation kernel.
 *
 * Every event scheduled into the EventQueue carries a compile-time
 * source tag naming the subsystem that scheduled it. Tags are inert
 * one-byte payloads riding in the heap node's existing struct
 * padding: when no profiler is attached they cost nothing, and with
 * one attached they let the kernel account host time and event
 * counts per subsystem.
 */

#ifndef UMANY_SIM_EV_SOURCE_HH
#define UMANY_SIM_EV_SOURCE_HH

#include <cstddef>
#include <cstdint>

namespace umany
{

/**
 * Where an event came from. One entry per subsystem that schedules
 * events; Other is the default for untagged (legacy) call sites.
 */
enum class EvSrc : std::uint8_t
{
    Other = 0,      //!< Untagged / miscellaneous.
    Kernel,         //!< Driver & harness control (recording toggles).
    Sampler,        //!< Observability sampler ticks.
    LoadGen,        //!< Open-loop arrival generation.
    Fault,          //!< Fault-plan application.
    NocHop,         //!< ICN per-hop link traversal.
    NocDeliver,     //!< ICN delivery completion (incl. drop/degrade).
    NetExternal,    //!< Inter-server fabric & storage-tier arrivals.
    RpcNic,         //!< Top-level NIC ingress/egress and shed bounces.
    SchedDispatch,  //!< Queue insertion and dispatcher routing.
    ClientRetry,    //!< Client-side recovery timeouts and backoff.
    CoreRun,        //!< Core segment execution.
    CtxSwitch,      //!< Context-switch / dispatcher-blocking path.
    MemCoherence,   //!< Migration warm-up and coherence transfers.
    ReqComplete,    //!< Request/response completion processing.
};

/** Number of distinct event sources (array-size constant). */
constexpr std::size_t kNumEvSrcs = 15;

/** Stable lowercase name of @p src (JSON keys and table rows). */
const char *evSrcName(EvSrc src);

/** The tag attached to one scheduled event: its subsystem. */
struct EvTag
{
    EvSrc src = EvSrc::Other;
};

} // namespace umany

#endif // UMANY_SIM_EV_SOURCE_HH
