/**
 * @file
 * Deterministic binary event tracing of the translation pipeline
 * (DESIGN.md §12).
 *
 * A Tracer owns one output file and one append-only record buffer per
 * simulated core. Instrumented components (MMU, page walker, kernel)
 * record typed events stamped with (sim-timestamp, core, seq, ccid, pid,
 * vaddr-page); the per-core seq counters never reset, so the triple
 * (ts, core, seq) is a unique, deterministic sort key. At every weave
 * barrier System calls flushBarrier(), which merges the per-core buffers
 * in canonical (ts, core, seq) order and appends them to the file as one
 * framed block.
 *
 * Determinism argument (mirrors core/epoch.hh): during a bound phase a
 * core's buffer is appended only by the host thread running that core,
 * and the per-core event stream is a pure function of that core's
 * simulated execution — which PR 3 already guarantees is independent of
 * the worker count. Kernel-side events (fault service, CoW
 * privatization, shootdowns) occur only in single-threaded windows and
 * are attributed to the faulting core via setKernelContext. The merge
 * key is unique, so the flushed byte stream — and therefore the whole
 * file — is byte-identical at every BF_WORKERS.
 *
 * File layout (all integers little-endian):
 *
 *     magic[8]  "BFTRACE\0"
 *     u32       trace format version
 *     u32       record size in bytes (40)
 *     u32       number of simulated cores
 *     u32       event mask the trace was captured with (allEvents)
 *     u64       record count   (patched on finish)
 *     u64       dropped count  (records beyond BF_TRACE_LIMIT)
 *     u64       reserved (0)
 *     config    112-byte serialized TraceConfig (v2: the recording
 *               machine's TLB/PWC geometry and mode flags)
 *     blocks    each: u32 block magic, u32 record count, records
 *
 * Records are framed into one block per weave barrier because global
 * timestamp sortedness cannot hold across barriers: a core's chunk-N
 * events may overshoot the barrier past another core's first chunk-N+1
 * events. Within a block records are (ts, core, seq)-sorted, and each
 * core's seq values increase strictly across the whole file — the
 * validator checks both.
 */

#ifndef BF_COMMON_TRACE_TRACE_HH
#define BF_COMMON_TRACE_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bf::trace
{

/**
 * Typed events of the translation pipeline.
 *
 * Format v2 arg packings (all little-endian bit ranges within the u64
 * arg; see DESIGN.md §13 for the replay contract that consumes them):
 *
 *   TlbL1Hit/TlbL2Hit/TlbMiss  bits 0-15 translating PCID,
 *                              bits 16-22 O-PC process bit + 1 (0 = no
 *                              bit assigned).
 *   PwcHit/WalkStep            bits 0-2 page-table level,
 *                              bits 3-63 physical address of the page-
 *                              table entry (8-aligned, low bits zero).
 *   TlbFill                    bits 0-15 PCID, 16-17 PageSize,
 *                              18 owned, 19 orpc, 20 cow,
 *                              bits 32-63 O-PC pc_bitmask.
 *   FaultService               bits 0-31 kernel cycles, 32-47 PCID,
 *                              48-49 stale PageSize, 50 declared_cow.
 *   Shootdown                  bits 0-31 number of pages, 32-47 PCID,
 *                              48-49 PageSize.
 */
enum class EventType : std::uint8_t
{
    TlbL1Hit = 0,     //!< L1 TLB hit. flags: hit flags below.
    TlbL2Hit = 1,     //!< L2 TLB hit. flags: hit flags below.
    TlbMiss = 2,      //!< Miss in both TLB levels; a walk follows.
    PwcHit = 3,       //!< Walk step served by the PWC. arg = level|paddr.
    WalkStart = 4,    //!< Page walk issued.
    WalkStep = 5,     //!< Walk step into the hierarchy. arg =
                      //!< level|paddr, flags = serving mem level
                      //!< (provisional L3 for bound-phase deferred
                      //!< steps).
    WalkEnd = 6,      //!< Walk finished. arg = walk cycles,
                      //!< flags = WalkStatus.
    FaultService = 7, //!< Kernel fault service. arg packed as above,
                      //!< flags = FaultKind.
    CowPrivatize = 8, //!< 512-entry leaf table privatized (O-PC).
    MaskFallback = 9, //!< >32-writer MaskPage revert of a region.
    Shootdown = 10,   //!< TLB invalidation broadcast.
                      //!< arg packed as above, flags = kind.
    TlbFill = 11,     //!< L2+L1 TLB fill after a successful walk.
                      //!< arg = fill attributes packed as above.
    StatsReset = 12,  //!< System::resetStats marker (warm-up boundary).
};

/** Number of event types (mask width). */
inline constexpr unsigned numEventTypes = 13;

/** Mask with every event type; a Tracer records all of them. */
inline constexpr std::uint32_t allEvents = (1u << numEventTypes) - 1;

/** Human-readable event name ("?" for unknown types). */
const char *eventTypeName(EventType type);

/** @{ @name Flag bits of the TLB hit/miss events */
inline constexpr std::uint8_t flagInstr = 1 << 0;     //!< Ifetch access.
inline constexpr std::uint8_t flagWrite = 1 << 1;     //!< Write access.
inline constexpr std::uint8_t flagSharedHit = 1 << 2; //!< CCID shared hit.
inline constexpr std::uint8_t flagOwned = 1 << 3;     //!< O bit of entry.
inline constexpr std::uint8_t flagOrpc = 1 << 4;      //!< ORPC bit.
inline constexpr std::uint8_t flagCowFault = 1 << 5;  //!< Write hit a CoW
                                                      //!< entry: fault, no
                                                      //!< hit counted / no
                                                      //!< L1 refill.
inline constexpr std::uint8_t flagLongL2 = 1 << 6;    //!< Long (bitmask-
                                                      //!< checking) L2
                                                      //!< access.
/** @} */

/**
 * @{
 * @name v2 arg packing helpers
 * Encoders live next to the decoders so the record sites (MMU, walker,
 * kernel) and the replay engine can never drift apart. Bit layouts are
 * documented on EventType.
 */
inline std::uint64_t
packAttempt(std::uint16_t pcid, int process_bit)
{
    return std::uint64_t{pcid} |
           (static_cast<std::uint64_t>(process_bit + 1) << 16);
}

inline std::uint16_t
attemptPcid(std::uint64_t arg)
{
    return static_cast<std::uint16_t>(arg);
}

/** O-PC process bit of the translating process, -1 for none. */
inline int
attemptProcessBit(std::uint64_t arg)
{
    return static_cast<int>((arg >> 16) & 0x7f) - 1;
}

inline std::uint64_t
packWalkStep(unsigned level, std::uint64_t entry_paddr)
{
    // Page-table entries are 8-byte aligned, so the level borrows the
    // address's three zero low bits.
    return (level & 0x7u) | (entry_paddr & ~std::uint64_t{7});
}

inline unsigned
walkStepLevel(std::uint64_t arg)
{
    return static_cast<unsigned>(arg & 0x7);
}

/** Physical address of the page-table entry (8-byte aligned). */
inline std::uint64_t
walkStepPaddr(std::uint64_t arg)
{
    return arg & ~std::uint64_t{7};
}

inline std::uint64_t
packFill(std::uint16_t pcid, unsigned size, bool owned, bool orpc,
         bool cow, std::uint32_t pc_bitmask)
{
    return std::uint64_t{pcid} | (std::uint64_t{size & 0x3u} << 16) |
           (std::uint64_t{owned} << 18) | (std::uint64_t{orpc} << 19) |
           (std::uint64_t{cow} << 20) |
           (std::uint64_t{pc_bitmask} << 32);
}

inline std::uint16_t fillPcid(std::uint64_t arg)
{ return static_cast<std::uint16_t>(arg); }
inline unsigned fillSize(std::uint64_t arg)
{ return static_cast<unsigned>((arg >> 16) & 0x3); }
inline bool fillOwned(std::uint64_t arg) { return (arg >> 18) & 1; }
inline bool fillOrpc(std::uint64_t arg) { return (arg >> 19) & 1; }
inline bool fillCow(std::uint64_t arg) { return (arg >> 20) & 1; }
inline std::uint32_t fillBitmask(std::uint64_t arg)
{ return static_cast<std::uint32_t>(arg >> 32); }

inline std::uint64_t
packFault(std::uint64_t cycles, std::uint16_t pcid, unsigned stale_size,
          bool declared_cow)
{
    return (cycles & 0xffffffffull) | (std::uint64_t{pcid} << 32) |
           (std::uint64_t{stale_size & 0x3u} << 48) |
           (std::uint64_t{declared_cow} << 50);
}

inline std::uint16_t faultPcid(std::uint64_t arg)
{ return static_cast<std::uint16_t>(arg >> 32); }
inline unsigned faultStaleSize(std::uint64_t arg)
{ return static_cast<unsigned>((arg >> 48) & 0x3); }
inline bool faultDeclaredCow(std::uint64_t arg)
{ return (arg >> 50) & 1; }

inline std::uint64_t
packShootdown(std::uint64_t num_pages, std::uint16_t pcid, unsigned size)
{
    return (num_pages & 0xffffffffull) | (std::uint64_t{pcid} << 32) |
           (std::uint64_t{size & 0x3u} << 48);
}

inline std::uint64_t shootdownPages(std::uint64_t arg)
{ return arg & 0xffffffffull; }
inline std::uint16_t shootdownPcid(std::uint64_t arg)
{ return static_cast<std::uint16_t>(arg >> 32); }
inline unsigned shootdownSize(std::uint64_t arg)
{ return static_cast<unsigned>((arg >> 48) & 0x3); }
/** @} */

/** Record::cslot value for "no container attribution". */
inline constexpr std::uint16_t noCslot = 0xffff;

/**
 * One traced event, in memory. The on-disk form is the same fields
 * serialized little-endian in declaration order (40 bytes total). The
 * final u16 — v2's zero pad — is the v3 container-attribution slot
 * (cslot); reading a v2 file forces it to noCslot, so v2 traces keep
 * decoding unchanged.
 */
struct Record
{
    Cycles ts = 0;           //!< Simulated issue time (core clock).
    std::uint64_t vpage = 0; //!< Canonical VA >> 12 (event-specific).
    std::uint64_t arg = 0;   //!< Event-specific payload.
    std::uint32_t pid = 0;   //!< Faulting/translating process (0: none).
    std::uint32_t seq = 0;   //!< Per-core record order, never reset.
    std::uint16_t core = 0;
    std::uint16_t ccid = 0;
    std::uint8_t type = 0;   //!< EventType.
    std::uint8_t flags = 0;
    std::uint16_t cslot = noCslot; //!< Attribution slot (v3; see above).
};

/** On-disk record size in bytes. */
inline constexpr std::uint32_t recordBytes = 40;

/**
 * Geometry of one TLB structure as captured in the trace header. The
 * replay engine (src/replay) instantiates functional models from these,
 * so a trace is self-describing: replay at the recording config needs
 * no side-channel knowledge of the simulated machine.
 */
struct TraceTlbConfig
{
    std::uint32_t entries = 0;
    std::uint16_t assoc = 0;            //!< 0 = fully associative.
    std::uint16_t access_cycles = 1;
    std::uint16_t bitmask_extra_cycles = 0;
    std::uint8_t policy = 0;            //!< tlb::TlbParams::Policy.
};

/** Indices into TraceConfig::tlb, in MmuParams declaration order. */
enum TraceTlbIdx : unsigned
{
    TraceL1i4k = 0,
    TraceL1d4k = 1,
    TraceL1d2m = 2,
    TraceL1d1g = 3,
    TraceL24k = 4,
    TraceL22m = 5,
    TraceL21g = 6,
    traceNumTlbs = 7,
};

/**
 * Recording-time machine configuration embedded in the v2 header
 * (the 112-byte block after the 48 base header bytes).
 */
struct TraceConfig
{
    TraceTlbConfig tlb[traceNumTlbs];
    std::uint32_t pwc_entries_per_level = 0; //!< 0 = PWC disabled.
    std::uint16_t pwc_assoc = 0;
    std::uint16_t pwc_levels = 0;
    std::uint16_t pwc_access_cycles = 0;
    std::uint16_t aslr_transform_cycles = 0;
    bool babelfish = false;     //!< CCID-tagged L2 lookups.
    bool l1_sharing = false;    //!< CCID-tagged L1 lookups.
    bool force_long_l2 = false; //!< Every BabelFish L2 access is long.
    bool aslr_hw = false;       //!< HW ASLR transform on the L1-miss path.
    std::uint8_t opc_width = 0; //!< O-PC bitmask width (max_cow_writers).
    /**
     * translate::BackendKind id of the recording run. Carried in a
     * formerly-zero padding byte, so v2 traces recorded before the
     * backend zoo decode as 0 (BabelFish, the only backend that
     * existed) with no version bump.
     */
    std::uint8_t backend = 0;
};

/** On-disk size of the serialized TraceConfig block. */
inline constexpr std::uint32_t configBytes = 112;

/** On-disk header size in bytes (base fields + config block). */
inline constexpr std::uint32_t headerBytes = 48 + configBytes;

/**
 * Trace format version. v2 added the header config block, the TlbFill /
 * StatsReset events and the arg packings documented on EventType. v3
 * repurposes the record's zero pad u16 as the container-attribution
 * slot (Record::cslot); the reader accepts v2 (forcing cslot to
 * noCslot) because every other byte is identical. Older versions must
 * be re-recorded, never reinterpreted.
 */
inline constexpr std::uint32_t traceFormatVersion = 3;

/** Oldest trace format version the reader still decodes. */
inline constexpr std::uint32_t traceMinReadVersion = 2;

/** Block frame marker ("BLK1"). */
inline constexpr std::uint32_t blockMagic = 0x314b4c42;

/** Records translation-pipeline events into per-core buffers. */
class Tracer
{
  public:
    /**
     * Open @p path for writing and emit the header. A failed open
     * leaves the tracer disabled (ok() == false) with a warning —
     * tracing is observability, never a reason to kill a run.
     *
     * Every EventType is recorded; the header's event mask is
     * allEvents.
     *
     * @param limit maximum records written to the file; 0 = unlimited.
     *        Applied in canonical merge order at flush time, so the
     *        truncation point is deterministic too. Excess records are
     *        counted in the header's dropped field.
     * @param config recording-time machine configuration, embedded in
     *        the header so the trace is self-describing for replay.
     */
    Tracer(std::string path, unsigned num_cores, std::uint64_t limit = 0,
           const TraceConfig &config = {});
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Whether the output file is open and healthy. */
    bool ok() const { return file_ != nullptr; }

    /**
     * Attach the pid → attribution-slot resolver (System wires the
     * attrib registry's; null detaches). Records stamp the resolved
     * slot into Record::cslot so post-hoc tools group per container.
     * Called from bound threads, but the registry only mutates in
     * single-threaded windows, so the lookup is never raced.
     */
    void
    setSlotLookup(std::function<int(std::uint32_t)> lookup)
    {
        slot_lookup_ = std::move(lookup);
    }

    /**
     * Record one event into @p core's buffer. Thread-safety contract:
     * called either by the host thread running @p core's bound phase,
     * or from a single-threaded window (fault service, weave).
     */
    void
    record(unsigned core, EventType type, Cycles ts, std::uint16_t ccid,
           std::uint32_t pid, Addr vaddr, std::uint64_t arg = 0,
           std::uint8_t flags = 0)
    {
        if (!file_)
            return;
        Record rec;
        rec.ts = ts;
        rec.vpage = vaddr >> basePageShift;
        rec.arg = arg;
        rec.pid = pid;
        rec.seq = next_seq_[core]++;
        rec.core = static_cast<std::uint16_t>(core);
        rec.ccid = ccid;
        rec.type = static_cast<std::uint8_t>(type);
        rec.flags = flags;
        if (slot_lookup_) {
            const int slot = slot_lookup_(pid);
            if (slot >= 0 && slot < noCslot)
                rec.cslot = static_cast<std::uint16_t>(slot);
        }
        bufs_[core].push_back(rec);
    }

    /**
     * @{
     * @name Kernel attribution context
     * The kernel has no core or clock of its own; before each fault
     * service the driver (or the MMU's serial retry path) stamps the
     * faulting core and fault time here, and kernel-side events recorded
     * through recordKernel() are attributed to that context. Kernel
     * mutations only happen in single-threaded windows, so the context
     * is never raced.
     */
    void
    setKernelContext(unsigned core, Cycles ts)
    {
        kctx_core_ = core;
        kctx_ts_ = ts;
        kctx_valid_ = true;
    }

    void clearKernelContext() { kctx_valid_ = false; }

    /** Record an event at the kernel context (no-op outside one). */
    void
    recordKernel(EventType type, std::uint16_t ccid, std::uint32_t pid,
                 Addr vaddr, std::uint64_t arg = 0, std::uint8_t flags = 0)
    {
        if (kctx_valid_)
            record(kctx_core_, type, kctx_ts_, ccid, pid, vaddr, arg,
                   flags);
    }
    /** @} */

    /**
     * Merge the per-core buffers in (ts, core, seq) order and append
     * them to the file as one block. Called single-threaded at every
     * weave barrier.
     */
    void flushBarrier();

    /** Final flush, header patch (record/dropped counts), close. */
    void finish();

    /** Records written to the file so far. */
    std::uint64_t written() const { return written_; }

    /** Records beyond the limit (counted, not written). */
    std::uint64_t dropped() const { return dropped_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t limit_ = 0;
    std::uint64_t written_ = 0;
    std::uint64_t dropped_ = 0;

    std::vector<std::vector<Record>> bufs_;     //!< Per core.
    std::vector<std::uint32_t> next_seq_;       //!< Per core, monotone.
    std::vector<Record> merge_buf_;             //!< Reused across flushes.
    std::vector<std::uint8_t> io_buf_;          //!< Reused across flushes.

    /** pid → attribution slot (setSlotLookup); empty = no stamping. */
    std::function<int(std::uint32_t)> slot_lookup_;

    unsigned kctx_core_ = 0;
    Cycles kctx_ts_ = 0;
    bool kctx_valid_ = false;
};

/** Any integrity or format violation found while reading a trace. */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Decoded trace-file header. */
struct TraceHeader
{
    std::uint32_t version = 0;
    std::uint32_t record_bytes = 0;
    std::uint32_t num_cores = 0;
    std::uint32_t event_mask = 0;
    std::uint64_t record_count = 0;
    std::uint64_t dropped_count = 0;
    TraceConfig config;
};

/**
 * Block-at-a-time reader over a trace file. The constructor validates
 * the header; nextBlock() decodes one block per call. Malformed input
 * throws TraceError, never crashes.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceHeader &header() const { return header_; }

    /**
     * Decode the next block into @p out (replacing its contents).
     * @return false at a clean end of file.
     */
    bool nextBlock(std::vector<Record> &out);

  private:
    std::FILE *file_ = nullptr;
    TraceHeader header_;
};

/** What validateTrace() found in a healthy file. */
struct ValidateResult
{
    std::uint64_t records = 0;
    std::uint64_t blocks = 0;
};

/**
 * Full integrity scan of a trace file: header sanity, block framing,
 * known event types, cores within range, per-block (ts, core, seq)
 * sortedness, strictly increasing per-core seq across the whole file,
 * and a record count matching the header. @throws TraceError on the
 * first violation.
 */
ValidateResult validateTrace(const std::string &path);

} // namespace bf::trace

#endif // BF_COMMON_TRACE_TRACE_HH
