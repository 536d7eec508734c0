/**
 * @file
 * Checkpoint archive: a small versioned binary container for simulator
 * snapshots (gem5/Simics-style checkpointing, DESIGN.md §11).
 *
 * File layout (all integers little-endian, fixed width):
 *
 *     magic[8]  "BFCKPT\r\n"   (the \r\n catches text-mode mangling)
 *     u32       format version
 *     u64       payload length in bytes
 *     u32       CRC32 of the payload
 *     payload   length-prefixed tagged sections
 *
 * The payload is a flat byte stream produced by typed put* calls,
 * structured by nestable sections: a 4-character tag followed by a u32
 * byte length, patched when the section ends. The reader verifies magic,
 * version, length and CRC *before* returning a reader, so a truncated or
 * corrupted file is rejected up front — restore never begins mutating
 * simulator state from a file that fails any integrity check. All reads
 * are bounds-checked and mismatches throw SnapshotError, never crash.
 */

#ifndef BF_COMMON_SNAPSHOT_HH
#define BF_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bf::snap
{

/** Any integrity or format violation found while reading an archive. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Bumped whenever the serialized component layout changes.
 * History: 1 = initial layout; 2 = Distribution stats in the stat tree;
 * 3 = TLB replacement policy + RNG state in the TLB payload; 4 = the
 * manifest covers every core::forEachParam field.
 */
inline constexpr std::uint32_t formatVersion = 4;

/** CRC32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/** Serializes typed values into a tagged-section byte stream. */
class ArchiveWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Doubles are stored by bit pattern: restore is bit-exact. */
    void f64(double v);
    /** Length-prefixed UTF-8 string. */
    void str(std::string_view s);

    /** @{ @name Sections (tag must be exactly 4 characters) */
    void beginSection(std::string_view tag);
    void endSection();
    /** @} */

    /**
     * Write header + payload to @p path via a temp file and rename, so
     * a crash mid-write never leaves a truncated file under the final
     * name. @return false (with the OS error on stderr) on IO failure.
     */
    bool writeFile(const std::string &path) const;

    /** The raw payload built so far (tests round-trip through this). */
    const std::vector<std::uint8_t> &payload() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_sections_; //!< Offsets of length fields.
};

/** Bounds-checked reader over a validated archive payload. */
class ArchiveReader
{
  public:
    /**
     * Load and validate @p path: magic, format version, payload length
     * and CRC32 are all checked here, before any simulator state can be
     * touched. @throws SnapshotError with a diagnostic on any problem.
     */
    static ArchiveReader fromFile(const std::string &path);

    /** Wrap an in-memory payload (tests; no header checks). */
    explicit ArchiveReader(std::vector<std::uint8_t> payload)
        : payload_(std::move(payload))
    {}

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    /** @{ @name Sections */
    /** Enter a section; @throws SnapshotError if the tag differs. */
    void enterSection(std::string_view tag);
    /** Leave it; @throws SnapshotError unless fully consumed. */
    void exitSection();
    /** @} */

    /** Whether the cursor reached the end of the payload. */
    bool atEnd() const { return pos_ == payload_.size(); }

  private:
    std::vector<std::uint8_t> payload_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> section_ends_;

    /** @throws SnapshotError when fewer than @p n bytes remain. */
    void need(std::size_t n) const;
};

} // namespace bf::snap

#endif // BF_COMMON_SNAPSHOT_HH
