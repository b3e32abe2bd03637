// Versioned, CRC-checked binary serialization for simulator snapshots.
//
// A snapshot file is a header (magic, format version, tick, config hash)
// followed by named component sections and a trailing CRC32 over everything
// before it. Sections are length-prefixed, so a reader can index the file
// (tools/inspect dumps the section table) without understanding any
// payload. All integers are little-endian; payloads are written by the
// components themselves through the primitive accessors below.
//
// Writing is atomic: the file image is assembled in memory and published
// with write-temp-then-rename, so a killed process never leaves a torn
// snapshot (or results file — atomicWriteFile is shared with the JSON
// writers) behind.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.h"

namespace dscoh::snap {

/// Every failure in this subsystem (bad magic, CRC mismatch, truncated
/// section, unquiesced component, config-hash mismatch) throws this.
class SnapError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Current snapshot file format version. Bump on ANY layout change — there
/// is deliberately no cross-version migration: a snapshot is a cache of a
/// deterministic computation, never the only copy of anything, so readers
/// reject other versions loudly and callers re-simulate.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Standard CRC-32 (IEEE 802.3, reflected), eight bytes per step
/// (slicing-by-8). @p seed chains partial blocks.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Writes @p contents to @p path via a temporary file in the same
/// directory plus rename(2), so concurrent readers (and crash recovery)
/// only ever observe the old or the complete new file. Durable: the temp
/// file is fsync'ed before the rename and the containing directory after
/// it, so a crash straight after return cannot lose the publication.
/// Transient failures (EIO, short write) are retried a bounded number of
/// times; persistent failures and ENOSPC throw SnapError. Consults the
/// process io-fault injector (fault/io_fault.h) when one is installed.
void atomicWriteFile(const std::string& path, const std::string& contents);

/// Appends @p data to @p path and fsyncs it. Torn-safe retry: a failed or
/// short append is undone with ftruncate back to the pre-append length
/// before the bounded retry, so the file never gains a duplicated or
/// interleaved record. Creating the file also fsyncs its directory. This
/// is the primitive under every WAL/journal append. Throws SnapError when
/// retries are exhausted or the disk is full.
void durableAppendLine(const std::string& path, const std::string& data);

/// fsyncs the directory itself so a rename/creation inside it survives a
/// crash. A directory that cannot be opened is skipped (not every
/// filesystem supports it); a failing fsync throws SnapError.
void fsyncDir(const std::string& dirPath);

/// The containing directory of @p path ("." when it has none).
std::string dirOf(const std::string& path);

/// Assembles a snapshot image section by section.
class SnapWriter {
public:
    SnapWriter(Tick tick, std::uint64_t configHash)
        : tick_(tick), configHash_(configHash)
    {
    }

    /// Starts a new named section; primitives below land in it. Section
    /// names must be unique within a file.
    void beginSection(const std::string& name);
    void endSection();

    void u8(std::uint8_t v) { raw(&v, 1); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void str(const std::string& s);
    void bytes(const void* data, std::size_t size);

    Tick tick() const { return tick_; }

    /// The complete file image (header + sections + CRC).
    std::string finish() const;

    /// finish() + atomicWriteFile().
    void writeFile(const std::string& path) const;

private:
    void raw(const void* data, std::size_t size);

    struct Section {
        std::string name;
        std::string payload;
    };

    Tick tick_;
    std::uint64_t configHash_;
    std::vector<Section> sections_;
    bool open_ = false;
};

/// One entry of a snapshot's section table.
struct SectionInfo {
    std::string name;
    std::uint64_t bytes = 0;
};

/// Parses and validates a snapshot file; components then consume their
/// sections. Every read is bounds-checked against its section; closing a
/// section verifies it was consumed exactly, so a component whose layout
/// drifted from the writer fails loudly instead of reading garbage.
class SnapReader {
public:
    /// Reads @p path (one read(2) of the size fstat reports), validating
    /// that it is a regular file, its magic, format version and the
    /// trailing CRC. Throws SnapError with the reason on any mismatch.
    explicit SnapReader(const std::string& path);

    std::uint32_t formatVersion() const { return version_; }
    Tick tick() const { return tick_; }
    std::uint64_t configHash() const { return configHash_; }
    const std::vector<SectionInfo>& sections() const { return table_; }
    bool hasSection(const std::string& name) const;
    /// Size of the whole file image, CRC trailer included.
    std::uint64_t fileBytes() const { return data_.size(); }

    /// Positions the cursor at the start of @p name. Throws if absent or
    /// if another section is still open.
    void openSection(const std::string& name);
    /// Verifies the open section was consumed exactly.
    void closeSection();

    // A restore decodes every field of every component through these, so
    // they are inline, with one bounds check per field.
    std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
    std::uint32_t u32() { return loadLe<std::uint32_t>(take(4)); }
    std::uint64_t u64() { return loadLe<std::uint64_t>(take(8)); }
    double f64() { return std::bit_cast<double>(u64()); }
    /// The length prefix is checked against the section before the string
    /// is allocated.
    std::string str()
    {
        const std::uint32_t n = u32();
        return std::string(take(n), n);
    }
    void bytes(void* out, std::size_t size)
    {
        std::memcpy(out, take(size), size);
    }

private:
    /// The next @p size bytes of the open section; advances past them.
    const char* take(std::size_t size)
    {
        if (size > sectionEnd_ - cursor_ || !open_) [[unlikely]]
            throwBadRead();
        const char* p = data_.data() + cursor_;
        cursor_ += size;
        return p;
    }
    [[noreturn]] void throwBadRead() const;

    /// The host is little-endian like the file (DataBlock assumes the
    /// same), so a field is one unaligned load.
    template <typename T> static T loadLe(const char* p)
    {
        static_assert(std::endian::native == std::endian::little);
        T v = 0;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    std::string data_;
    std::uint32_t version_ = 0;
    Tick tick_ = 0;
    std::uint64_t configHash_ = 0;
    std::vector<SectionInfo> table_;
    std::vector<std::size_t> offsets_; ///< payload start per section
    std::size_t cursor_ = 0;
    std::size_t sectionEnd_ = 0;
    std::string openName_;
    bool open_ = false;
};

/// Snapshot header summary for tools (no payload validation beyond CRC).
struct SnapshotHeader {
    std::uint32_t formatVersion = 0;
    Tick tick = 0;
    std::uint64_t configHash = 0;
    std::vector<SectionInfo> sections;
    std::uint64_t fileBytes = 0;
};

/// Reads @p path's header and section table (CRC-validated — throws
/// SnapError on corruption, exactly like SnapReader).
SnapshotHeader readSnapshotHeader(const std::string& path);

} // namespace dscoh::snap
