#include "common/trace/trace.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace bf::trace
{

namespace
{

const char traceMagic[8] = {'B', 'F', 'T', 'R', 'A', 'C', 'E', '\0'};

/** Byte offsets of the header fields patched by Tracer::finish(). */
constexpr long recordCountOffset = 24;
constexpr long droppedCountOffset = 32;

void
putU16(std::vector<std::uint8_t> &buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{p[i]} << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

void
putRecord(std::vector<std::uint8_t> &buf, const Record &rec)
{
    putU64(buf, rec.ts);
    putU64(buf, rec.vpage);
    putU64(buf, rec.arg);
    putU32(buf, rec.pid);
    putU32(buf, rec.seq);
    putU16(buf, rec.core);
    putU16(buf, rec.ccid);
    buf.push_back(rec.type);
    buf.push_back(rec.flags);
    putU16(buf, rec.cslot); // v2's zero pad; 40 bytes total
}

Record
getRecord(const std::uint8_t *p)
{
    Record rec;
    rec.ts = getU64(p);
    rec.vpage = getU64(p + 8);
    rec.arg = getU64(p + 16);
    rec.pid = getU32(p + 24);
    rec.seq = getU32(p + 28);
    rec.core = getU16(p + 32);
    rec.ccid = getU16(p + 34);
    rec.type = p[36];
    rec.flags = p[37];
    rec.cslot = getU16(p + 38);
    return rec;
}

/** Serialize the v2 header config block (configBytes bytes). */
void
putConfig(std::vector<std::uint8_t> &buf, const TraceConfig &cfg)
{
    const std::size_t start = buf.size();
    for (unsigned i = 0; i < traceNumTlbs; ++i) {
        const TraceTlbConfig &t = cfg.tlb[i];
        putU32(buf, t.entries);
        putU16(buf, t.assoc);
        putU16(buf, t.access_cycles);
        putU16(buf, t.bitmask_extra_cycles);
        buf.push_back(t.policy);
        buf.push_back(0); // pad to 12 bytes per TLB
    }
    putU32(buf, cfg.pwc_entries_per_level);
    putU16(buf, cfg.pwc_assoc);
    putU16(buf, cfg.pwc_levels);
    putU16(buf, cfg.pwc_access_cycles);
    putU16(buf, cfg.aslr_transform_cycles);
    std::uint8_t flags = 0;
    flags |= cfg.babelfish ? 1u << 0 : 0;
    flags |= cfg.l1_sharing ? 1u << 1 : 0;
    flags |= cfg.force_long_l2 ? 1u << 2 : 0;
    flags |= cfg.aslr_hw ? 1u << 3 : 0;
    buf.push_back(flags);
    buf.push_back(cfg.opc_width);
    buf.push_back(cfg.backend);
    while (buf.size() - start < configBytes)
        buf.push_back(0);
    bf_assert(buf.size() - start == configBytes,
              "trace config block is ", buf.size() - start, " bytes");
}

TraceConfig
getConfig(const std::uint8_t *p)
{
    TraceConfig cfg;
    for (unsigned i = 0; i < traceNumTlbs; ++i) {
        TraceTlbConfig &t = cfg.tlb[i];
        t.entries = getU32(p);
        t.assoc = getU16(p + 4);
        t.access_cycles = getU16(p + 6);
        t.bitmask_extra_cycles = getU16(p + 8);
        t.policy = p[10];
        p += 12;
    }
    cfg.pwc_entries_per_level = getU32(p);
    cfg.pwc_assoc = getU16(p + 4);
    cfg.pwc_levels = getU16(p + 6);
    cfg.pwc_access_cycles = getU16(p + 8);
    cfg.aslr_transform_cycles = getU16(p + 10);
    const std::uint8_t flags = p[12];
    cfg.babelfish = flags & (1u << 0);
    cfg.l1_sharing = flags & (1u << 1);
    cfg.force_long_l2 = flags & (1u << 2);
    cfg.aslr_hw = flags & (1u << 3);
    cfg.opc_width = p[13];
    cfg.backend = p[14]; // zero (BabelFish) in pre-zoo traces
    return cfg;
}

/** Canonical merge order; (ts, core, seq) is unique by construction. */
bool
recordLess(const Record &a, const Record &b)
{
    if (a.ts != b.ts)
        return a.ts < b.ts;
    if (a.core != b.core)
        return a.core < b.core;
    return a.seq < b.seq;
}

} // namespace

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::TlbL1Hit: return "tlb_l1_hit";
      case EventType::TlbL2Hit: return "tlb_l2_hit";
      case EventType::TlbMiss: return "tlb_miss";
      case EventType::PwcHit: return "pwc_hit";
      case EventType::WalkStart: return "walk_start";
      case EventType::WalkStep: return "walk_step";
      case EventType::WalkEnd: return "walk_end";
      case EventType::FaultService: return "fault_service";
      case EventType::CowPrivatize: return "cow_privatize";
      case EventType::MaskFallback: return "mask_fallback";
      case EventType::Shootdown: return "shootdown";
      case EventType::TlbFill: return "tlb_fill";
      case EventType::StatsReset: return "stats_reset";
    }
    return "?";
}

Tracer::Tracer(std::string path, unsigned num_cores, std::uint64_t limit,
               const TraceConfig &config)
    : path_(std::move(path)), limit_(limit),
      bufs_(num_cores), next_seq_(num_cores, 0)
{
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) {
        warn("trace: cannot open ", path_, " for writing; tracing off");
        return;
    }
    // Byte pushes, not a range insert: g++ 12 with LTO misreads a range
    // insert into the still-empty buffer as an overflow
    // (-Wstringop-overflow), as in ArchiveWriter::beginSection.
    std::vector<std::uint8_t> header;
    for (const char c : traceMagic)
        header.push_back(static_cast<std::uint8_t>(c));
    putU32(header, traceFormatVersion);
    putU32(header, recordBytes);
    putU32(header, num_cores);
    putU32(header, allEvents);
    putU64(header, 0); // record count, patched by finish()
    putU64(header, 0); // dropped count, patched by finish()
    putU64(header, 0); // reserved
    putConfig(header, config);
    bf_assert(header.size() == headerBytes,
              "trace header is ", header.size(), " bytes");
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
        warn("trace: short write of header to ", path_, "; tracing off");
        std::fclose(file_);
        file_ = nullptr;
    }
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::flushBarrier()
{
    if (!file_)
        return;
    merge_buf_.clear();
    for (auto &buf : bufs_) {
        merge_buf_.insert(merge_buf_.end(), buf.begin(), buf.end());
        buf.clear();
    }
    if (merge_buf_.empty())
        return;
    std::sort(merge_buf_.begin(), merge_buf_.end(), recordLess);

    // The limit is applied here, in canonical order, so the records that
    // survive truncation are the same at every worker count.
    std::size_t keep = merge_buf_.size();
    if (limit_ != 0) {
        const std::uint64_t room = limit_ > written_ ? limit_ - written_ : 0;
        keep = std::min<std::uint64_t>(keep, room);
    }
    dropped_ += merge_buf_.size() - keep;
    if (keep == 0)
        return;

    io_buf_.clear();
    putU32(io_buf_, blockMagic);
    putU32(io_buf_, static_cast<std::uint32_t>(keep));
    for (std::size_t i = 0; i < keep; ++i)
        putRecord(io_buf_, merge_buf_[i]);
    if (std::fwrite(io_buf_.data(), 1, io_buf_.size(), file_) !=
        io_buf_.size()) {
        warn("trace: short write to ", path_, "; tracing off");
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    written_ += keep;
}

void
Tracer::finish()
{
    if (!file_)
        return;
    flushBarrier();
    if (!file_) // flush may have failed and closed the file
        return;
    std::vector<std::uint8_t> patch;
    putU64(patch, written_);
    bool ok = std::fseek(file_, recordCountOffset, SEEK_SET) == 0 &&
              std::fwrite(patch.data(), 1, 8, file_) == 8;
    patch.clear();
    putU64(patch, dropped_);
    ok = ok && std::fseek(file_, droppedCountOffset, SEEK_SET) == 0 &&
         std::fwrite(patch.data(), 1, 8, file_) == 8;
    if (std::fclose(file_) != 0 || !ok)
        warn("trace: failed to finalize ", path_);
    file_ = nullptr;
}

TraceReader::TraceReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        throw TraceError("trace: cannot open " + path);
    std::uint8_t raw[headerBytes];
    if (std::fread(raw, 1, sizeof(raw), file_) != sizeof(raw)) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": truncated header");
    }
    if (std::memcmp(raw, traceMagic, sizeof(traceMagic)) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": bad magic");
    }
    header_.version = getU32(raw + 8);
    header_.record_bytes = getU32(raw + 12);
    header_.num_cores = getU32(raw + 16);
    header_.event_mask = getU32(raw + 20);
    header_.record_count = getU64(raw + 24);
    header_.dropped_count = getU64(raw + 32);
    header_.config = getConfig(raw + 48);
    std::string problem;
    if (header_.version < traceMinReadVersion ||
        header_.version > traceFormatVersion)
        problem = "unsupported version " + std::to_string(header_.version) +
                  " (format v" + std::to_string(traceFormatVersion) +
                  " required; re-record the trace)";
    else if (header_.record_bytes != recordBytes)
        problem = "record size " + std::to_string(header_.record_bytes);
    else if (header_.num_cores == 0)
        problem = "zero cores";
    if (!problem.empty()) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": " + problem);
    }
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::nextBlock(std::vector<Record> &out)
{
    out.clear();
    std::uint8_t frame[8];
    const std::size_t got = std::fread(frame, 1, sizeof(frame), file_);
    if (got == 0 && std::feof(file_))
        return false;
    if (got != sizeof(frame))
        throw TraceError("trace: truncated block frame");
    if (getU32(frame) != blockMagic)
        throw TraceError("trace: bad block magic");
    const std::uint32_t count = getU32(frame + 4);
    if (count == 0)
        throw TraceError("trace: empty block");
    std::vector<std::uint8_t> raw(std::size_t{count} * recordBytes);
    if (std::fread(raw.data(), 1, raw.size(), file_) != raw.size())
        throw TraceError("trace: truncated block body");
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        out.push_back(getRecord(raw.data() + std::size_t{i} * recordBytes));
    // v2 wrote a zero pad where v3 keeps the attribution slot; force it
    // to "none" so slot 0 is never fabricated from old files.
    if (header_.version < 3)
        for (Record &rec : out)
            rec.cslot = noCslot;
    return true;
}

ValidateResult
validateTrace(const std::string &path)
{
    TraceReader reader(path);
    const TraceHeader &header = reader.header();
    ValidateResult result;
    // Per-core seq must increase strictly across the whole file; -1
    // (as u64) means "none seen yet".
    std::vector<std::uint64_t> last_seq(header.num_cores, ~std::uint64_t{0});
    std::vector<Record> block;
    while (reader.nextBlock(block)) {
        ++result.blocks;
        for (std::size_t i = 0; i < block.size(); ++i) {
            const Record &rec = block[i];
            if (rec.type >= numEventTypes)
                throw TraceError("trace: unknown event type " +
                                 std::to_string(rec.type));
            if (((header.event_mask >> rec.type) & 1) == 0)
                throw TraceError(std::string("trace: masked-out event ") +
                                 eventTypeName(EventType{rec.type}));
            if (rec.core >= header.num_cores)
                throw TraceError("trace: core " + std::to_string(rec.core) +
                                 " out of range");
            if (i > 0 && !recordLess(block[i - 1], rec))
                throw TraceError("trace: block not (ts, core, seq)-sorted "
                                 "at record " + std::to_string(result.records));
            std::uint64_t &last = last_seq[rec.core];
            if (last != ~std::uint64_t{0} && rec.seq <= last)
                throw TraceError("trace: core " + std::to_string(rec.core) +
                                 " seq not strictly increasing");
            last = rec.seq;
            ++result.records;
        }
    }
    if (result.records != header.record_count)
        throw TraceError("trace: header claims " +
                         std::to_string(header.record_count) +
                         " records, file has " +
                         std::to_string(result.records));
    return result;
}

} // namespace bf::trace
