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
 * simulator state from a file that fails any integrity check. Every read
 * is bounds-checked, every element count is bounded by the bytes left
 * before anything is sized from it, and mismatches throw SnapshotError,
 * never crash.
 */

#ifndef BF_COMMON_SNAPSHOT_HH
#define BF_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
 * Bumped whenever the serialized component layout changes, together
 * with the CRCs pinned by SystemSnapshot.ArchiveLayoutPinned.
 * History: 1 = initial layout; 2 = Distribution stats in the stat tree;
 * 3 = TLB replacement policy + RNG state in the TLB payload; 4 = the
 * manifest covers every core::forEachParam field; 5 = the caches'
 * unused MSHR count left the manifest; 6 = the core's prefetch buffers
 * and finished-thread flags left its payload; 7 = the unused
 * SystemParams seed left the manifest; 8 = the attribution flag left
 * the manifest (attribution is always on).
 */
inline constexpr std::uint32_t formatVersion = 8;

/** CRC32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/**
 * @{
 * @name Field verbs
 * Each stateful component describes its checkpoint layout once, in a
 * `template <class Ar, class Self> static void io(Ar &ar, Self &self)`
 * that both directions run: with an ArchiveWriter (Self = const T) the
 * verbs write the fields, with an ArchiveReader (Self = T) the same
 * calls read them back. Both classes therefore offer the same verbs:
 *
 *  - u8/u16/u32/u64/i64/b/f64/str(field): one field, cast to the fixed
 *    archive width (enums and narrower integers are cast both ways);
 *  - expect(value, what): a value the restoring world already has
 *    (geometry, names, counts); the reader throws SnapshotError(what)
 *    if the archive disagrees. The value's type picks the width: bool,
 *    std::uint8_t..std::uint64_t or a string;
 *  - count32/count64(container): the element count; the reader bounds
 *    it by the bytes left in the section, then refills the container
 *    with that many default elements for io() to read into;
 *  - entries32(map, fn): a keyed container, fn(key, value) per entry;
 *  - flags(bits...): up to eight bools packed LSB-first into one byte;
 *  - part(component[, &T::save, &T::restore]): a nested component,
 *    through its public save/restore entry (so its post-restore steps
 *    run too), or through the named pair (threads, the stats tree);
 *  - section(tag, fn): a tagged section around fn().
 *
 * `Ar::loading` marks the reader; io() branches on it only where
 * restore has no mirror in save (DESIGN.md §11).
 */

namespace detail
{

template <class T>
constexpr bool isStringLike = std::is_convertible_v<const T &,
                                                    std::string_view>;

/** The types expect() accepts; each has one fixed archive width. */
template <class T>
constexpr bool isExpectable =
    std::is_same_v<T, bool> || isStringLike<T> ||
    (std::is_integral_v<T> && std::is_unsigned_v<T>);

} // namespace detail

/**
 * @p x with Self's constness. Owning pointers do not propagate const, so
 * io() reaches the parts they own through this to keep the save side
 * const.
 */
template <class Self, class T>
constexpr std::conditional_t<std::is_const_v<Self>, const T, T> &
like(T &x)
{
    return x;
}

/** Serializes typed values into a tagged-section byte stream. */
class ArchiveWriter
{
  public:
    static constexpr bool loading = false;

    template <class T> void u8(const T &v) { put(widen(v), 1); }
    template <class T> void u16(const T &v) { put(widen(v), 2); }
    template <class T> void u32(const T &v) { put(widen(v), 4); }
    template <class T> void u64(const T &v) { put(widen(v), 8); }
    template <class T> void i64(const T &v) { put(widen(v), 8); }
    template <class T> void b(const T &v) { put(v ? 1 : 0, 1); }
    /** Doubles are stored by bit pattern: restore is bit-exact. */
    void f64(double v);
    /** Length-prefixed UTF-8 string. */
    void str(std::string_view s);

    template <class T>
    void
    expect(const T &value, std::string_view)
    {
        static_assert(detail::isExpectable<T>);
        if constexpr (std::is_same_v<T, bool>)
            b(value);
        else if constexpr (detail::isStringLike<T>)
            str(value);
        else
            put(value, sizeof(T));
    }

    template <class C> void count32(const C &c) { u32(c.size()); }
    template <class C> void count64(const C &c) { u64(c.size()); }
    /** The live tail [from, end) of @p c; the reader rebuilds it at 0. */
    template <class C>
    void
    count32(const C &c, std::size_t from)
    {
        u32(c.size() - from);
    }

    template <class Map, class Fn>
    void
    entries32(const Map &map, Fn &&fn)
    {
        count32(map);
        for (const auto &[key, value] : map)
            fn(key, value);
    }

    template <class... Bits>
    void
    flags(const Bits &...bits)
    {
        static_assert(sizeof...(Bits) <= 8);
        unsigned shift = 0;
        std::uint8_t packed = 0;
        ((packed |= static_cast<std::uint8_t>((bits ? 1 : 0) << shift++)), ...);
        u8(packed);
    }

    template <class T> void part(const T &component) { component.save(*this); }
    /** A part whose entries are named otherwise: (c.*save)(*this). */
    template <class T, class Save, class Restore>
    void
    part(const T &component, Save save, Restore)
    {
        (component.*save)(*this);
    }

    /** @{ @name Sections (tag must be exactly 4 characters) */
    void beginSection(std::string_view tag);
    void endSection();
    template <class Fn>
    void
    section(std::string_view tag, Fn &&fn)
    {
        beginSection(tag);
        fn();
        endSection();
    }
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

    /** Append the low @p bytes bytes of @p v, little-endian. */
    void put(std::uint64_t v, unsigned bytes);

    template <class T>
    static std::uint64_t
    widen(const T &v)
    {
        return static_cast<std::uint64_t>(v);
    }
};

/** Bounds-checked reader over a validated archive payload. */
class ArchiveReader
{
  public:
    static constexpr bool loading = true;

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

    /** @{ @name Values (direct reads) */
    std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
    bool b() { return u8() != 0; }
    std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();
    /** @} */

    /** @{ @name Field verbs (see ArchiveWriter) */
    template <class T> void u8(T &field) { field = static_cast<T>(u8()); }
    template <class T> void u16(T &field) { field = static_cast<T>(u16()); }
    template <class T> void u32(T &field) { field = static_cast<T>(u32()); }
    template <class T> void u64(T &field) { field = static_cast<T>(u64()); }
    template <class T> void i64(T &field) { field = static_cast<T>(i64()); }
    template <class T> void b(T &field) { field = static_cast<T>(b()); }
    void f64(double &field) { field = f64(); }
    void str(std::string &field) { field = str(); }

    template <class T>
    void
    expect(const T &value, std::string_view what)
    {
        static_assert(detail::isExpectable<T>);
        bool same;
        if constexpr (std::is_same_v<T, bool>)
            same = b() == value;
        else if constexpr (detail::isStringLike<T>)
            same = str() == std::string_view(value);
        else
            same = static_cast<T>(get(sizeof(T))) == value;
        if (!same)
            throw SnapshotError(std::string(what));
    }

    template <class C> void count32(C &c) { refill(c, bounded(u32())); }
    template <class C> void count64(C &c) { refill(c, bounded(u64())); }
    template <class C>
    void
    count32(C &c, std::size_t &from)
    {
        count32(c);
        from = 0;
    }

    /** Clears @p map, then rebuilds it entry by entry through @p fn. */
    template <class Map, class Fn>
    void
    entries32(Map &map, Fn &&fn)
    {
        const std::uint64_t n = bounded(u32());
        map.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename Map::key_type key{};
            typename Map::mapped_type value{};
            fn(key, value);
            map.emplace(std::move(key), std::move(value));
        }
    }

    template <class... Bits>
    void
    flags(Bits &...bits)
    {
        static_assert(sizeof...(Bits) <= 8);
        const std::uint8_t packed = u8();
        unsigned shift = 0;
        ((bits = (packed >> shift++) & 1u), ...);
    }

    template <class T> void part(T &component) { component.restore(*this); }
    template <class T, class Save, class Restore>
    void
    part(T &component, Save, Restore restore)
    {
        (component.*restore)(*this);
    }
    /** @} */

    /** @{ @name Sections */
    /** Enter a section; @throws SnapshotError if the tag differs. */
    void enterSection(std::string_view tag);
    /** Leave it; @throws SnapshotError unless fully consumed. */
    void exitSection();
    template <class Fn>
    void
    section(std::string_view tag, Fn &&fn)
    {
        enterSection(tag);
        fn();
        exitSection();
    }
    /** @} */

    /** Whether the cursor reached the end of the payload. */
    bool atEnd() const { return pos_ == payload_.size(); }

  private:
    std::vector<std::uint8_t> payload_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> section_ends_;

    /** Bytes left before the end of the open section (or payload). */
    std::size_t left() const;
    /** @throws SnapshotError when fewer than @p n bytes remain. */
    void need(std::size_t n) const;
    /** Read @p bytes bytes, little-endian. */
    std::uint64_t get(unsigned bytes);
    /**
     * An element count: every element takes at least one byte, so a
     * count above the bytes left is corrupt. @throws SnapshotError.
     */
    std::uint64_t bounded(std::uint64_t count) const;

    template <class C>
    static void
    refill(C &c, std::uint64_t n)
    {
        c.clear();
        c.resize(n);
    }
};
/** @} */

} // namespace bf::snap

#endif // BF_COMMON_SNAPSHOT_HH
