#include "snap/serializer.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/io_fault.h"

namespace dscoh::snap {

namespace {

constexpr std::array<char, 8> kMagic = {'D', 'S', 'C', 'O',
                                        'H', 'S', 'N', 'P'};

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the classic byte table; t[k][b] is the CRC
/// of byte b followed by k zero bytes, so one step folds eight input bytes
/// with eight lookups.
constexpr CrcTables makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

std::uint32_t loadLe32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed)
{
    const CrcTables& t = kCrcTables;
    std::uint32_t c = seed ^ 0xffffffffu;
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
    }
    for (; size > 0; --size, ++p)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

namespace {

/// Transient failures (EIO, short writes, failed fsync) get this many
/// attempts before the error propagates; ENOSPC never retries.
constexpr int kDurableRetries = 3;

struct WriteAttempt {
    bool ok = false;
    bool retryable = false;
    std::string error;
};

/// Writes [data, data+size) to @p fd, consulting the io-fault injector
/// before each write(2). Injected torn writes land their prefix and then
/// kill the process (or throw, under a test crash handler).
WriteAttempt writeAllFd(int fd, const std::string& name, const char* data,
                        std::size_t size)
{
    WriteAttempt a;
    std::size_t off = 0;
    while (off < size) {
        const std::size_t want = size - off;
        if (fault::IoFaultInjector* inj = fault::ioFaultInjector()) {
            using Kind = fault::IoFaultInjector::WriteDecision::Kind;
            const auto d = inj->onWrite(name, want);
            if (d.kind != Kind::kNone) {
                if (d.kind == Kind::kTornCrash ||
                    d.kind == Kind::kShortWrite) {
                    // The prefix really lands — that is what makes the
                    // record torn rather than merely missing.
                    std::size_t landed = 0;
                    while (landed < d.keepBytes) {
                        const ssize_t n = ::write(fd, data + off + landed,
                                                  d.keepBytes - landed);
                        if (n <= 0)
                            break;
                        landed += static_cast<std::size_t>(n);
                    }
                }
                switch (d.kind) {
                case Kind::kTornCrash:
                    fault::ioFaultCrash("torn write to " + name);
                    a.error = name + ": injected torn write";
                    a.retryable = true; // crash handler returned (tests)
                    return a;
                case Kind::kShortWrite:
                    a.error = name + ": injected short write";
                    a.retryable = true;
                    return a;
                case Kind::kEnospc:
                    a.error = name +
                              ": injected ENOSPC (no space left on device)";
                    a.retryable = false;
                    return a;
                case Kind::kEio:
                    a.error = name + ": injected EIO";
                    a.retryable = true;
                    return a;
                case Kind::kNone:
                    break;
                }
            }
        }
        const ssize_t n = ::write(fd, data + off, want);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            a.error = "write " + name + " failed: " + std::strerror(err);
            a.retryable = err != ENOSPC;
            return a;
        }
        off += static_cast<std::size_t>(n);
    }
    a.ok = true;
    return a;
}

/// fsync(fd) with fault injection. Fills @p a on failure.
bool fsyncFd(int fd, const std::string& name, WriteAttempt* a)
{
    if (fault::IoFaultInjector* inj = fault::ioFaultInjector()) {
        if (inj->onFsync(name)) {
            a->error = name + ": injected fsync failure";
            a->retryable = true;
            return false;
        }
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        a->error = "fsync " + name + " failed: " + std::strerror(err);
        a->retryable = err != ENOSPC;
        return false;
    }
    return true;
}

/// One attempt at assembling the temp file: open-trunc, write, fsync.
WriteAttempt writeTmpOnce(const std::string& tmp,
                          const std::string& contents)
{
    WriteAttempt a;
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        a.error = "cannot open " + tmp + " for writing: " +
                  std::strerror(errno);
        return a;
    }
    a = writeAllFd(fd, tmp, contents.data(), contents.size());
    if (a.ok && !fsyncFd(fd, tmp, &a))
        a.ok = false;
    if (::close(fd) != 0 && a.ok) {
        a.ok = false;
        a.retryable = true;
        a.error = "close " + tmp + " failed: " + std::strerror(errno);
    }
    return a;
}

} // namespace

std::string dirOf(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

void fsyncDir(const std::string& dirPath)
{
    const int fd =
        ::open(dirPath.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return; // not every filesystem lets you open a directory
    WriteAttempt a;
    const bool ok = fsyncFd(fd, dirPath, &a);
    ::close(fd);
    if (!ok)
        throw SnapError(a.error);
}

void atomicWriteFile(const std::string& path, const std::string& contents)
{
    const std::string tmp = path + ".tmp";
    WriteAttempt last;
    for (int attempt = 0; attempt < kDurableRetries; ++attempt) {
        last = writeTmpOnce(tmp, contents);
        if (last.ok)
            break;
        if (!last.retryable)
            break;
    }
    if (!last.ok) {
        std::remove(tmp.c_str());
        throw SnapError(last.error);
    }

    if (fault::IoFaultInjector* inj = fault::ioFaultInjector()) {
        using R = fault::IoFaultInjector::RenameDecision;
        const R d = inj->onRename(path);
        if (d == R::kCrashBefore) {
            fault::ioFaultCrash("crash before rename of " + path);
            // Test crash handler returned without throwing: the temp file
            // stays behind, the publication never happened.
            std::remove(tmp.c_str());
            throw SnapError(path + ": injected crash before rename");
        }
        if (d == R::kCrashAfter) {
            if (std::rename(tmp.c_str(), path.c_str()) != 0) {
                const int err = errno;
                std::remove(tmp.c_str());
                throw SnapError("rename " + tmp + " -> " + path +
                                " failed: " + std::strerror(err));
            }
            fault::ioFaultCrash("crash after rename of " + path);
            // Handler returned: the file IS published, but its directory
            // entry may not be durable — exactly the window satellite 1
            // closes. Fall through to the directory fsync.
            fsyncDir(dirOf(path));
            return;
        }
    }

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        throw SnapError("rename " + tmp + " -> " + path + " failed: " +
                        std::strerror(err));
    }
    // A crash between rename and directory fsync can roll the rename back;
    // syncing the parent closes the last window of the publication.
    fsyncDir(dirOf(path));
}

void durableAppendLine(const std::string& path, const std::string& data)
{
    WriteAttempt last;
    for (int attempt = 0; attempt < kDurableRetries; ++attempt) {
        const int fd = ::open(path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                              0644);
        if (fd < 0) {
            last.error = "cannot open " + path + " for append: " +
                         std::strerror(errno);
            last.retryable = true;
            continue;
        }
        const off_t origSize = ::lseek(fd, 0, SEEK_END);
        last = writeAllFd(fd, path, data.data(), data.size());
        if (last.ok && !fsyncFd(fd, path, &last))
            last.ok = false;
        if (!last.ok) {
            // Undo the partial append so a retry (or the next record)
            // never produces a duplicated or interleaved prefix. Torn
            // records therefore come only from real (or injected) crashes,
            // which replay handles by truncation.
            if (origSize >= 0)
                (void)::ftruncate(fd, origSize);
            ::close(fd);
            if (!last.retryable)
                break;
            continue;
        }
        ::close(fd);
        if (origSize == 0)
            fsyncDir(dirOf(path)); // first creation: make the entry durable
        return;
    }
    throw SnapError(last.error);
}

// --------------------------------------------------------------------------
// SnapWriter

void SnapWriter::beginSection(const std::string& name)
{
    if (open_)
        throw SnapError("beginSection('" + name + "') with '" +
                        sections_.back().name + "' still open");
    for (const Section& s : sections_)
        if (s.name == name)
            throw SnapError("duplicate snapshot section '" + name + "'");
    sections_.push_back(Section{name, {}});
    open_ = true;
}

void SnapWriter::endSection()
{
    if (!open_)
        throw SnapError("endSection() with no open section");
    open_ = false;
}

std::string SnapWriter::finish() const
{
    if (open_)
        throw SnapError("finish() with section '" + sections_.back().name +
                        "' still open");
    std::string out;
    out.append(kMagic.data(), kMagic.size());
    appendLe(out, kFormatVersion);
    appendLe(out, tick_);
    appendLe(out, configHash_);
    appendLe(out, static_cast<std::uint32_t>(sections_.size()));
    for (const Section& s : sections_) {
        appendLe(out, static_cast<std::uint32_t>(s.name.size()));
        out.append(s.name);
        appendLe(out, static_cast<std::uint64_t>(s.payload.size()));
        out.append(s.payload);
    }
    appendLe(out, crc32(out.data(), out.size()));
    return out;
}

void SnapWriter::writeFile(const std::string& path) const
{
    atomicWriteFile(path, finish());
}

// --------------------------------------------------------------------------
// SnapReader

namespace {

/// Closes a file descriptor on every way out of its scope.
class FdCloser {
public:
    explicit FdCloser(int fd) : fd_(fd) {}
    ~FdCloser() { ::close(fd_); }
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;

private:
    int fd_;
};

} // namespace

SnapReader::SnapReader(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw SnapError("cannot open snapshot: " + path);
    const FdCloser closer(fd);
    // Size first, so the image is read in one call. fstat also refuses a
    // directory or a device before its "size" is allocated.
    struct stat st {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        throw SnapError(path + ": not a regular file");
    data_.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < data_.size()) {
        const ssize_t n = ::read(fd, data_.data() + got, data_.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    if (got != data_.size())
        throw SnapError(path + ": short read (" + std::to_string(got) +
                        " of " + std::to_string(data_.size()) + " bytes)");

    const std::size_t minSize = kMagic.size() + 4 + 8 + 8 + 4 + 4;
    if (data_.size() < minSize)
        throw SnapError(path + ": truncated snapshot (" +
                        std::to_string(data_.size()) + " bytes)");
    if (std::memcmp(data_.data(), kMagic.data(), kMagic.size()) != 0)
        throw SnapError(path + ": not a dscoh snapshot (bad magic)");

    const char* const image = data_.data();
    const std::uint32_t storedCrc =
        loadLe<std::uint32_t>(image + data_.size() - 4);
    const std::uint32_t actualCrc = crc32(image, data_.size() - 4);
    if (storedCrc != actualCrc)
        throw SnapError(path + ": CRC mismatch (file " +
                        std::to_string(storedCrc) + ", computed " +
                        std::to_string(actualCrc) + ") — corrupt snapshot");

    std::size_t at = kMagic.size();
    version_ = loadLe<std::uint32_t>(image + at);
    at += 4;
    if (version_ != kFormatVersion)
        throw SnapError(path + ": snapshot format version " +
                        std::to_string(version_) + ", this build reads " +
                        std::to_string(kFormatVersion) +
                        " — re-simulate instead of restoring");
    tick_ = loadLe<std::uint64_t>(image + at);
    at += 8;
    configHash_ = loadLe<std::uint64_t>(image + at);
    at += 8;
    const std::uint32_t count = loadLe<std::uint32_t>(image + at);
    at += 4;
    const std::size_t end = data_.size() - 4; // CRC trailer
    for (std::uint32_t i = 0; i < count; ++i) {
        if (at + 4 > end)
            throw SnapError(path + ": truncated section table");
        const std::uint32_t nameLen = loadLe<std::uint32_t>(image + at);
        at += 4;
        if (at + nameLen + 8 > end)
            throw SnapError(path + ": truncated section header");
        std::string name = data_.substr(at, nameLen);
        at += nameLen;
        const std::uint64_t payloadLen = loadLe<std::uint64_t>(image + at);
        at += 8;
        if (payloadLen > end - at)
            throw SnapError(path + ": section '" + name +
                            "' overruns the file");
        table_.push_back(SectionInfo{std::move(name), payloadLen});
        offsets_.push_back(at);
        at += payloadLen;
    }
    if (at != end)
        throw SnapError(path + ": trailing garbage after last section");
}

bool SnapReader::hasSection(const std::string& name) const
{
    for (const SectionInfo& s : table_)
        if (s.name == name)
            return true;
    return false;
}

void SnapReader::openSection(const std::string& name)
{
    if (open_)
        throw SnapError("openSection('" + name + "') with '" + openName_ +
                        "' still open");
    for (std::size_t i = 0; i < table_.size(); ++i) {
        if (table_[i].name == name) {
            cursor_ = offsets_[i];
            sectionEnd_ = offsets_[i] + table_[i].bytes;
            openName_ = name;
            open_ = true;
            return;
        }
    }
    throw SnapError("snapshot has no section '" + name +
                    "' — saved by an incompatible build?");
}

void SnapReader::closeSection()
{
    if (!open_)
        throw SnapError("closeSection() with no open section");
    if (cursor_ != sectionEnd_)
        throw SnapError("section '" + openName_ + "': " +
                        std::to_string(sectionEnd_ - cursor_) +
                        " unconsumed bytes — reader/writer layout mismatch");
    open_ = false;
}

void SnapReader::fail(const std::string& why) const
{
    if (!open_)
        throw SnapError("snapshot read outside of a section");
    throw SnapError("section '" + openName_ + "': " + why);
}

SnapshotHeader readSnapshotHeader(const std::string& path)
{
    SnapReader reader(path);
    SnapshotHeader header;
    header.formatVersion = reader.formatVersion();
    header.tick = reader.tick();
    header.configHash = reader.configHash();
    header.sections = reader.sections();
    header.fileBytes = reader.fileBytes();
    return header;
}

} // namespace dscoh::snap
