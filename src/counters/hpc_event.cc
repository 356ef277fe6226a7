#include "counters/hpc_event.hh"

#include "common/logging.hh"

namespace dejavu {

namespace {

const std::vector<std::string> kNames = {
    "busq_empty", "cpu_clk_unhalted", "l2_ads", "l2_reject_busq",
    "l2_st", "load_block", "store_block", "page_walks",
    "inst_retired", "flops_retired", "l2_lines_in", "l2_lines_out",
    "l2_ld", "l1d_repl", "l1d_all_ref", "bus_trans_mem",
    "bus_trans_brd", "dtlb_misses", "mem_load_retired_l2_miss",
    "resource_stalls",
    "bus_trans_any", "bus_drdy_clocks", "l2_ifetch", "l2_rqsts",
    "icache_misses", "itlb_miss_retired", "br_inst_retired",
    "br_miss_pred_retired", "uops_retired", "machine_clears",
    "div_busy", "sse_pre_exec", "x87_ops_retired", "seg_reg_renames",
    "esp_synch", "fp_assist", "simd_inst_retired", "hw_int_rcv",
    "segment_reg_loads", "cycles_int_masked",
    "mem_load_retired_dtlb_miss", "store_forwards", "timer_tick",
    "white_noise", "therm_trip", "prefetch_rqsts", "snoop_stalls",
    "bus_io_wait",
    "xen_cpu_percent", "xen_mem_percent", "xen_net_rx_kbps",
    "xen_net_tx_kbps", "xen_vbd_rd", "xen_vbd_wr",
};

} // namespace

const std::string &
hpcEventName(HpcEvent event)
{
    const int idx = static_cast<int>(event);
    DEJAVU_ASSERT(idx >= 0 && idx < kNumHpcEvents, "event out of range");
    return kNames[static_cast<std::size_t>(idx)];
}

const std::vector<HpcEvent> &
allHpcEvents()
{
    static const auto events = [] {
        std::vector<HpcEvent> v;
        v.reserve(static_cast<std::size_t>(kNumHpcEvents));
        for (int i = 0; i < kNumHpcEvents; ++i)
            v.push_back(static_cast<HpcEvent>(i));
        return v;
    }();
    return events;
}

std::vector<std::string>
allHpcEventNames()
{
    return kNames;
}

bool
isXentopMetric(HpcEvent event)
{
    return static_cast<int>(event) >= kNumHardwareEvents;
}

const std::vector<HpcEvent> &
table1Events()
{
    static const std::vector<HpcEvent> events = {
        HpcEvent::BusqEmpty, HpcEvent::CpuClkUnhalted, HpcEvent::L2Ads,
        HpcEvent::L2RejectBusq, HpcEvent::L2St, HpcEvent::LoadBlock,
        HpcEvent::StoreBlock, HpcEvent::PageWalks,
    };
    return events;
}

} // namespace dejavu
