/**
 * @file
 * DRAMSim2-lite: a main-memory timing model with channels, ranks, banks
 * and open-row buffers.
 *
 * Table I of the paper: 32 GB, 2 channels, 8 ranks/channel, 8 banks/rank,
 * 1 GHz DDR. The model computes a latency for each request from the
 * row-buffer state of the target bank (hit / closed / conflict) plus
 * queueing behind the bank's previous request.
 */

#ifndef BF_MEM_DRAM_HH
#define BF_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace bf::mem
{

/**
 * Organization and timing parameters of main memory. channels,
 * ranks_per_channel, banks_per_rank and row_bytes / 64 / channels must
 * be powers of two.
 */
struct DramParams
{
    unsigned channels = 2;
    unsigned ranks_per_channel = 8;
    unsigned banks_per_rank = 8;
    std::uint64_t row_bytes = 8 * 1024;

    // Timing in core cycles (2 GHz core, 1 GHz DRAM => 2 core cycles per
    // DRAM cycle). Typical DDR3-2000-ish parameters.
    Cycles t_cas = 28;       //!< Column access (row already open).
    Cycles t_rcd = 28;       //!< Row activate.
    Cycles t_rp = 28;        //!< Precharge (close a conflicting row).
    Cycles t_burst = 8;      //!< Data burst occupancy of the bank.
    Cycles channel_latency = 20; //!< Controller + bus overhead per access.
};

/** Multi-bank main-memory timing model with open-page policy. */
class Dram
{
  public:
    /**
     * @param params memory organization.
     * @param parent stat group to register under, may be null.
     */
    explicit Dram(const DramParams &params,
                  stats::StatGroup *parent = nullptr);

    /**
     * Access main memory.
     *
     * @param paddr physical byte address.
     * @param now requester's current cycle (for bank queueing).
     * @param is_write whether the access is a write.
     * @return total latency in cycles including queueing.
     */
    Cycles access(Addr paddr, Cycles now, bool is_write);

    /** Total banks across channels and ranks. */
    unsigned numBanks() const;

    /** @{ @name Statistics */
    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar row_hits;
    stats::Scalar row_misses;    //!< Bank had no open row.
    stats::Scalar row_conflicts; //!< Bank had a different row open.
    /** @} */

    const DramParams &params() const { return params_; }

    /** @{ @name Checkpointing (open rows + bank ready times) */
    void save(snap::ArchiveWriter &ar) const;
    void restore(snap::ArchiveReader &ar);
    /** @} */

  private:
    template <class Ar, class Self> static void io(Ar &ar, Self &self);

    struct Bank
    {
        std::uint64_t open_row = 0;
        bool row_open = false;
        Cycles ready_at = 0;   //!< When the bank can start a new request.
    };

    DramParams params_;
    /** @{ log2 of the power-of-two organization fields (decode) */
    unsigned channel_bits_;
    unsigned rank_bits_;
    unsigned bank_bits_;
    unsigned row_shift_;       //!< Line to row chunk: channel + row bits.
    /** @} */
    std::vector<Bank> banks_;  //!< channel-major, then rank, then bank.
    stats::StatGroup stat_group_;

    /** Flat bank index and row id of an address. */
    unsigned decode(Addr paddr, std::uint64_t &row_out) const;
};

} // namespace bf::mem

#endif // BF_MEM_DRAM_HH
