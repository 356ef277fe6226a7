/**
 * @file
 * Hardware performance counter event catalog.
 *
 * The paper's profiling server is an Intel Xeon X5472 (Penryn):
 * "four registers that allow monitoring of HPCs, with up to 60
 * different events" (§3.3). We catalog a representative 48 HPC events
 * of that microarchitecture plus 6 xentop-style VM metrics — 54
 * candidate metrics in total, from which the signature selector picks
 * the informative subset. The eight events of Table 1 (the RUBiS
 * signature) are all present.
 */

#ifndef DEJAVU_COUNTERS_HPC_EVENT_HH
#define DEJAVU_COUNTERS_HPC_EVENT_HH

#include <string>
#include <vector>

namespace dejavu {

/**
 * Catalogued monitorable events. The first block are HPC events; the
 * trailing block are xentop-reported VM metrics (§3.3 mixes both in
 * the signature dataset).
 */
enum class HpcEvent : int
{
    // --- Table 1 events (RUBiS signature) ---
    BusqEmpty = 0,        ///< Bus queue is empty.
    CpuClkUnhalted,       ///< Clock cycles when not halted.
    L2Ads,                ///< Cycles the L2 address bus is in use.
    L2RejectBusq,         ///< Rejected L2 cache requests.
    L2St,                 ///< Number of L2 data stores.
    LoadBlock,            ///< Events pertaining to loads.
    StoreBlock,           ///< Events pertaining to stores.
    PageWalks,            ///< Page table walk events.
    // --- other informative events ---
    InstRetired,
    FlopsRetired,         ///< X87/SSE floating point ops (Fig. 4a).
    L2LinesIn,
    L2LinesOut,
    L2Ld,
    L1dRepl,
    L1dAllRef,
    BusTransMem,
    BusTransBrd,
    DtlbMisses,
    MemLoadRetiredL2Miss,
    ResourceStalls,
    // --- weakly informative / redundant / decoy events ---
    BusTransAny,
    BusDrdyClocks,
    L2Ifetch,
    L2Rqsts,
    IcacheMisses,
    ItlbMissRetired,
    BrInstRetired,
    BrMissPredRetired,
    UopsRetired,
    MachineClears,
    DivBusy,
    SsePreExec,
    X87OpsRetired,
    SegRegRenames,
    EspSynch,
    FpAssist,
    SimdInstRetired,
    HwIntRcv,
    SegmentRegLoads,
    CyclesIntMasked,
    MemLoadRetiredDtlbMiss,
    StoreForwards,
    Bogus1,               ///< Fixed-rate platform noise (timer tick).
    Bogus2,               ///< Pure white noise.
    Bogus3,               ///< Constant (thermal throttle counter, ~0).
    PrefetchRqsts,
    SnoopStalls,
    BusIoWait,
    // --- xentop-style VM metrics ---
    XenCpuPercent,
    XenMemPercent,
    XenNetRxKbps,
    XenNetTxKbps,
    XenVbdRd,
    XenVbdWr,
};

/** Total number of catalogued metrics. */
constexpr int kNumHpcEvents = 54;

/** Number of leading events that are true HPCs (rest are xentop). */
constexpr int kNumHardwareEvents = 48;

/** Event name as it appears in profiling tools / Table 1. */
const std::string &hpcEventName(HpcEvent event);

/** All catalogued events in index order. */
const std::vector<HpcEvent> &allHpcEvents();

/** All metric names in index order (convenience for datasets). */
std::vector<std::string> allHpcEventNames();

/** True if the event is a xentop-style VM metric. */
bool isXentopMetric(HpcEvent event);

/** The eight Table 1 events (the published RUBiS signature). */
const std::vector<HpcEvent> &table1Events();

} // namespace dejavu

#endif // DEJAVU_COUNTERS_HPC_EVENT_HH
