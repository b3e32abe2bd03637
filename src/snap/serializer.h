// Versioned, CRC-checked binary serialization for simulator snapshots.
//
// A snapshot file is a header (magic, format version, tick, config hash)
// followed by named component sections and a trailing CRC32 over everything
// before it. Sections are length-prefixed, so a reader can index the file
// (tools/inspect dumps the section table) without understanding any
// payload. All integers are little-endian.
//
// Payloads are described once per component, by a snapState template that
// walks the component's fields through the vocabulary SnapWriter and
// SnapReader share (u8/u32/u64/f64/str/bytes/flag, count, expect, nested,
// plus the keyed() and seq() container helpers below). Instantiated with a
// SnapWriter it saves; with a SnapReader it restores into the same fields,
// so the two directions cannot drift apart.
//
// Writing is atomic: the file image is assembled in memory and published
// with write-temp-then-rename, so a killed process never leaves a torn
// snapshot (or results file — atomicWriteFile is shared with the JSON
// writers) behind.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

/// What the field primitives carry: an integer or an enum, converted to
/// the primitive's wire width (bools go through flag()).
template <class T>
concept Field = (std::integral<T> && !std::same_as<T, bool>) ||
                std::is_enum_v<T>;

/// Assembles a snapshot image section by section.
class SnapWriter {
public:
    /// The direction a snapState template branches on.
    static constexpr bool kLoading = false;

    SnapWriter(Tick tick, std::uint64_t configHash)
        : tick_(tick), configHash_(configHash)
    {
    }

    /// Starts a new named section; primitives below land in it. Section
    /// names must be unique within a file.
    void beginSection(const std::string& name);
    void endSection();

    /// One section holding @p part's snapSave(), or what @p part writes
    /// when it is a callable.
    template <class Part> void section(const std::string& name, Part&& part)
    {
        beginSection(name);
        if constexpr (std::is_invocable_v<Part&, SnapWriter&>)
            part(*this);
        else
            part.snapSave(*this);
        endSection();
    }

    // The field vocabulary. SnapReader has the same calls taking
    // references, so one snapState serves both directions.
    template <Field T> void u8(T v) { put(static_cast<std::uint8_t>(v)); }
    template <Field T> void u32(T v) { put(static_cast<std::uint32_t>(v)); }
    template <Field T> void u64(T v) { put(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void flag(bool v) { u8(v ? 1 : 0); }
    void str(const std::string& s)
    {
        u32(s.size());
        bytes(s.data(), s.size());
    }
    void bytes(const void* data, std::size_t size)
    {
        payload().append(static_cast<const char*>(data), size);
    }
    /// An element count; the reader checks it against its section.
    void count(std::uint64_t n) { u64(n); }
    /// A value this build derives from its config (a geometry, a name), at
    /// the width of its own type; the reader refuses any other value.
    template <class T> void expect(const T& v, std::string_view)
    {
        if constexpr (std::same_as<T, std::string>)
            str(v);
        else
            put(v);
    }
    /// A member object, through its own snapState (plus @p extra).
    template <class T, class... Extra>
    void nested(const T& part, Extra&&... extra)
    {
        T::snapState(part, *this, std::forward<Extra>(extra)...);
    }

    Tick tick() const { return tick_; }

    /// The complete file image (header + sections + CRC).
    std::string finish() const;

    /// finish() + atomicWriteFile().
    void writeFile(const std::string& path) const;

private:
    std::string& payload()
    {
        if (!open_) [[unlikely]]
            throw SnapError("snapshot write outside of a section");
        return sections_.back().payload;
    }
    template <class T> void put(T v) { appendLe(payload(), v); }
    /// Appends @p v as a little-endian integer of its own width (the host
    /// is little-endian like the file; DataBlock assumes the same).
    template <class T> static void appendLe(std::string& out, T v)
    {
        static_assert(std::endian::native == std::endian::little);
        out.append(reinterpret_cast<const char*>(&v), sizeof v);
    }

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

    /// One section restored into @p part through its snapRestore(), or
    /// read by @p part when it is a callable.
    template <class Part> void section(const std::string& name, Part&& part)
    {
        openSection(name);
        if constexpr (std::is_invocable_v<Part&, SnapReader&>)
            part(*this);
        else
            part.snapRestore(*this);
        closeSection();
    }

    /// The direction a snapState template branches on.
    static constexpr bool kLoading = true;

    // A restore decodes every field of every component through these, so
    // they are inline, with one bounds check per field. The value forms
    // serve hand-written records (the runner's); the reference forms are
    // SnapWriter's vocabulary.
    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
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

    template <Field T> void u8(T& v) { v = static_cast<T>(u8()); }
    template <Field T> void u32(T& v) { v = static_cast<T>(u32()); }
    template <Field T> void u64(T& v) { v = static_cast<T>(u64()); }
    void f64(double& v) { v = f64(); }
    void flag(bool& v) { v = u8() != 0; }
    void str(std::string& s) { s = str(); }
    /// A count larger than the bytes left in the section cannot be backed
    /// by data, so it is refused before anything is sized from it.
    template <Field T> void count(T& n)
    {
        const std::uint64_t c = u64();
        if (c > sectionEnd_ - cursor_) [[unlikely]]
            fail("count " + std::to_string(c) + " exceeds the " +
                 std::to_string(sectionEnd_ - cursor_) + " bytes left");
        n = static_cast<T>(c);
    }
    /// Reads the snapshot's copy of @p mine and refuses the snapshot when
    /// they differ, naming @p what and both values.
    template <class T> void expect(const T& mine, std::string_view what)
    {
        if constexpr (std::same_as<T, std::string>) {
            const std::uint32_t n = u32();
            const std::string_view saved(take(n), n);
            if (saved != mine) [[unlikely]]
                fail(std::string(what) + " mismatch: snapshot '" +
                     std::string(saved) + "', this build '" + mine + "'");
        } else if (const T saved = get<T>(); saved != mine) [[unlikely]] {
            fail(std::string(what) + " mismatch: snapshot " +
                 std::to_string(saved) + ", this build " +
                 std::to_string(mine));
        }
    }
    /// A member object, through its own snapState (plus @p extra).
    template <class T, class... Extra> void nested(T& part, Extra&&... extra)
    {
        T::snapState(part, *this, std::forward<Extra>(extra)...);
    }

private:
    /// The next @p size bytes of the open section; advances past them.
    const char* take(std::size_t size)
    {
        if (size > sectionEnd_ - cursor_ || !open_) [[unlikely]]
            fail("read past end — reader/writer layout mismatch");
        const char* p = data_.data() + cursor_;
        cursor_ += size;
        return p;
    }
    template <class T> T get() { return loadLe<T>(take(sizeof(T))); }
    /// The host is little-endian like the file (DataBlock assumes the
    /// same), so a field is one unaligned load.
    template <typename T> static T loadLe(const char* p)
    {
        static_assert(std::endian::native == std::endian::little);
        T v = 0;
        std::memcpy(&v, p, sizeof v);
        return v;
    }
    /// Throws SnapError("section '<open section>': @p why"), or the
    /// out-of-section error when no section is open.
    [[noreturn]] void fail(const std::string& why) const;

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

/// keyed()'s defaults: a set has no mapped value, and every entry is kept.
struct NoValue {};
struct KeepAll {
    bool operator()(const auto&) const { return true; }
};

/// An integer-keyed map or set in key order: a count, then per entry its
/// key (u64) and whatever @p value archives of the mapped value. A hash
/// container iterates in no defined order and the file must be
/// deterministic, so this is the one place snapshot keys are sorted.
/// Saving keeps only the entries @p keep accepts; loading clears the
/// container and rebuilds it.
template <class Ar, class Map, class Value = NoValue, class Keep = KeepAll>
void keyed(Ar& ar, Map& m, Value value = {}, Keep keep = {})
{
    using M = std::remove_const_t<Map>;
    using Key = typename M::key_type;
    constexpr bool kIsMap = requires { typename M::mapped_type; };
    static_assert(kIsMap != std::same_as<Value, NoValue>,
                  "a map needs a value visitor, a set takes none");
    if constexpr (Ar::kLoading) {
        std::uint64_t n = 0;
        ar.count(n);
        m.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Key key{};
            ar.u64(key);
            if constexpr (kIsMap)
                value(ar, m[key]);
            else
                m.insert(key);
        }
    } else {
        std::vector<std::pair<Key, const typename M::value_type*>> order;
        order.reserve(m.size());
        for (const auto& e : m) {
            if (!keep(e))
                continue;
            if constexpr (kIsMap)
                order.emplace_back(e.first, &e);
            else
                order.emplace_back(e, &e);
        }
        std::sort(order.begin(), order.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        ar.count(order.size());
        for (const auto& [key, e] : order) {
            ar.u64(key);
            if constexpr (kIsMap)
                value(ar, e->second);
        }
    }
}

/// A vector or list: a count, then each element through @p elem. Loading
/// rebuilds it one element at a time, so a count its data cannot back
/// fails at the section's end rather than in the allocator.
template <class Ar, class Seq, class Elem>
void seq(Ar& ar, Seq& s, Elem&& elem)
{
    std::uint64_t n = s.size();
    ar.count(n);
    if constexpr (Ar::kLoading) {
        s.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            elem(ar, s.emplace_back());
    } else {
        for (auto& e : s)
            elem(ar, e);
    }
}

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
