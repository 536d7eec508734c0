#include "common/snapshot.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace bf::snap
{

namespace
{

constexpr std::array<char, 8> magic = {'B', 'F', 'C', 'K', 'P', 'T',
                                       '\r', '\n'};

// Header: magic[8] | version u32 | payload_len u64 | crc32 u32.
constexpr std::size_t headerBytes = 8 + 4 + 8 + 4;

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

void
putLe(std::vector<std::uint8_t> &buf, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    static const auto table = makeCrcTable();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
ArchiveWriter::put(std::uint64_t v, unsigned bytes)
{
    putLe(buf_, v, bytes);
}

void
ArchiveWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ArchiveWriter::str(std::string_view s)
{
    u32(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
ArchiveWriter::beginSection(std::string_view tag)
{
    bf_assert(tag.size() == 4, "section tag must be 4 chars: ", tag);
    // Byte pushes, not a range insert: g++ 12 with LTO misreads a range
    // insert into the still-empty buffer as an overflow
    // (-Wstringop-overflow).
    for (const char c : tag)
        buf_.push_back(static_cast<std::uint8_t>(c));
    open_sections_.push_back(buf_.size());
    u32(0); // Placeholder, patched by endSection.
}

void
ArchiveWriter::endSection()
{
    bf_assert(!open_sections_.empty(), "endSection without beginSection");
    const std::size_t len_at = open_sections_.back();
    open_sections_.pop_back();
    const std::uint64_t body = buf_.size() - (len_at + 4);
    bf_assert(body <= 0xffffffffu, "section too large");
    for (unsigned i = 0; i < 4; ++i)
        buf_[len_at + i] = static_cast<std::uint8_t>(body >> (8 * i));
}

bool
ArchiveWriter::writeFile(const std::string &path) const
{
    bf_assert(open_sections_.empty(), "writeFile with open sections");

    std::vector<std::uint8_t> header;
    header.reserve(headerBytes);
    header.insert(header.end(), magic.begin(), magic.end());
    putLe(header, formatVersion, 4);
    putLe(header, buf_.size(), 8);
    putLe(header, crc32(buf_.data(), buf_.size()), 4);

    // Temp file + rename keeps the final name either absent or complete.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("checkpoint: cannot open ", tmp, " for writing");
            return false;
        }
        out.write(reinterpret_cast<const char *>(header.data()),
                  static_cast<std::streamsize>(header.size()));
        out.write(reinterpret_cast<const char *>(buf_.data()),
                  static_cast<std::streamsize>(buf_.size()));
        if (!out) {
            warn("checkpoint: short write to ", tmp);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("checkpoint: rename ", tmp, " -> ", path, " failed: ",
             ec.message());
        return false;
    }
    return true;
}

ArchiveReader
ArchiveReader::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open checkpoint: " + path);

    std::array<std::uint8_t, headerBytes> header;
    in.read(reinterpret_cast<char *>(header.data()), headerBytes);
    if (in.gcount() != static_cast<std::streamsize>(headerBytes))
        throw SnapshotError("checkpoint header truncated: " + path);

    if (std::memcmp(header.data(), magic.data(), magic.size()) != 0)
        throw SnapshotError("bad checkpoint magic: " + path);

    auto le = [&](std::size_t off, unsigned bytes) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<std::uint64_t>(header[off + i]) << (8 * i);
        return v;
    };
    const auto version = static_cast<std::uint32_t>(le(8, 4));
    const std::uint64_t payload_len = le(12, 8);
    const auto stored_crc = static_cast<std::uint32_t>(le(20, 4));

    if (version != formatVersion) {
        throw SnapshotError(
            "checkpoint format version " + std::to_string(version) +
            " != supported " + std::to_string(formatVersion) + ": " + path);
    }

    std::vector<std::uint8_t> payload(payload_len);
    in.read(reinterpret_cast<char *>(payload.data()),
            static_cast<std::streamsize>(payload_len));
    if (in.gcount() != static_cast<std::streamsize>(payload_len))
        throw SnapshotError("checkpoint payload truncated: " + path);

    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != stored_crc) {
        throw SnapshotError("checkpoint CRC mismatch (corrupt file): " +
                            path);
    }
    return ArchiveReader(std::move(payload));
}

std::size_t
ArchiveReader::left() const
{
    const std::size_t limit =
        section_ends_.empty() ? payload_.size() : section_ends_.back();
    return limit - pos_;
}

void
ArchiveReader::need(std::size_t n) const
{
    if (n > left())
        throw SnapshotError("checkpoint read past end of data/section");
}

std::uint64_t
ArchiveReader::bounded(std::uint64_t count) const
{
    if (count > left()) {
        throw SnapshotError("checkpoint count " + std::to_string(count) +
                            " exceeds the " + std::to_string(left()) +
                            " bytes left in its section");
    }
    return count;
}

std::uint64_t
ArchiveReader::get(unsigned bytes)
{
    need(bytes);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(payload_[pos_ + i]) << (8 * i);
    pos_ += bytes;
    return v;
}

double
ArchiveReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ArchiveReader::str()
{
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(&payload_[pos_]), len);
    pos_ += len;
    return s;
}

void
ArchiveReader::enterSection(std::string_view tag)
{
    need(4 + 4);
    std::string_view found(
        reinterpret_cast<const char *>(&payload_[pos_]), 4);
    if (found != tag) {
        throw SnapshotError("checkpoint section mismatch: expected '" +
                            std::string(tag) + "', found '" +
                            std::string(found) + "'");
    }
    pos_ += 4;
    const std::uint32_t len = u32();
    need(len);
    section_ends_.push_back(pos_ + len);
}

void
ArchiveReader::exitSection()
{
    if (section_ends_.empty())
        throw SnapshotError("exitSection without enterSection");
    if (pos_ != section_ends_.back())
        throw SnapshotError("checkpoint section not fully consumed");
    section_ends_.pop_back();
}

} // namespace bf::snap
