// snap serializer: the CRC against a bit-at-a-time reference, primitive
// round-trips, section hygiene, and every rejection path a snapshot file
// can hit on disk — flipped bytes (CRC), truncation, bad magic, a path that
// is not a regular file, wrong format version, missing sections — plus the
// header inspection API and the atomic temp+rename publisher.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "snap/serializer.h"

namespace dscoh::snap {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void spit(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

/// A two-section file exercising every primitive.
std::string sampleImage()
{
    SnapWriter w(/*tick=*/12345, /*configHash=*/0xdeadbeefcafef00dULL);
    w.beginSection("alpha");
    w.u8(0x5a);
    w.u32(0x01020304u);
    w.u64(0x1122334455667788ULL);
    w.f64(-2.5);
    w.str("hello snapshot");
    w.endSection();
    w.beginSection("beta");
    const unsigned char blob[5] = {1, 2, 3, 4, 5};
    w.bytes(blob, sizeof blob);
    w.endSection();
    return w.finish();
}

TEST(SnapSerializer, Crc32KnownCheckValue)
{
    // The standard CRC-32 check value for the ASCII digits "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    // Chaining partial blocks must equal one pass over the whole buffer.
    const std::uint32_t head = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, head), 0xcbf43926u);
}

/// CRC-32 one bit at a time, straight from the reflected polynomial.
std::uint32_t crc32BitwiseReference(const unsigned char* p, std::size_t n,
                                    std::uint32_t seed = 0)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
    return ~c;
}

TEST(SnapSerializer, Crc32MatchesBytewiseReference)
{
    // Every length 0..300 at every start offset modulo 8 covers the
    // eight-byte steps, the byte tail and unaligned loads; chaining every
    // split point through the seed covers a step cut anywhere.
    unsigned char buf[7 + 300]; // start offsets 0..7, lengths up to 300
    std::uint32_t x = 0x9e3779b9u;
    for (unsigned char& b : buf) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 300; ++len)
            ASSERT_EQ(crc32(buf + offset, len),
                      crc32BitwiseReference(buf + offset, len))
                << "offset " << offset << " length " << len;
    const std::size_t total = 300;
    const std::uint32_t whole = crc32BitwiseReference(buf, total);
    for (std::size_t split = 0; split <= total; ++split)
        ASSERT_EQ(crc32(buf + split, total - split, crc32(buf, split)), whole)
            << "split " << split;
    EXPECT_EQ(crc32BitwiseReference(buf + 3, 5, 0x12345678u),
              crc32(buf + 3, 5, 0x12345678u));
}

TEST(SnapSerializer, PrimitivesRoundTrip)
{
    const std::string path = tempPath("prim.snap");
    spit(path, sampleImage());

    SnapReader r(path);
    EXPECT_EQ(r.formatVersion(), kFormatVersion);
    EXPECT_EQ(r.tick(), 12345u);
    EXPECT_EQ(r.configHash(), 0xdeadbeefcafef00dULL);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_EQ(r.sections()[0].name, "alpha");
    EXPECT_EQ(r.sections()[1].name, "beta");
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_FALSE(r.hasSection("gamma"));

    r.openSection("alpha");
    EXPECT_EQ(r.u8(), 0x5a);
    EXPECT_EQ(r.u32(), 0x01020304u);
    EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_EQ(r.str(), "hello snapshot");
    r.closeSection();

    r.openSection("beta");
    unsigned char blob[5] = {};
    r.bytes(blob, sizeof blob);
    EXPECT_EQ(blob[0], 1);
    EXPECT_EQ(blob[4], 5);
    r.closeSection();
    std::remove(path.c_str());
}

TEST(SnapSerializer, SectionsReadableInAnyOrder)
{
    const std::string path = tempPath("order.snap");
    spit(path, sampleImage());
    SnapReader r(path);
    r.openSection("beta");
    unsigned char blob[5] = {};
    r.bytes(blob, sizeof blob);
    r.closeSection();
    r.openSection("alpha");
    EXPECT_EQ(r.u8(), 0x5a);
    // Leaving the rest of "alpha" unconsumed must be caught at close.
    EXPECT_THROW(r.closeSection(), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, OverreadPastSectionEndThrows)
{
    const std::string path = tempPath("overread.snap");
    spit(path, sampleImage());
    SnapReader r(path);
    r.openSection("beta"); // 5 payload bytes
    unsigned char blob[5] = {};
    r.bytes(blob, sizeof blob);
    EXPECT_THROW(r.u8(), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, CountBeyondTheSectionIsASnapError)
{
    const std::string path = tempPath("count.snap");
    SnapWriter w(0, 0);
    w.beginSection("sized");
    w.count(16); // 16 bytes follow: a count of 16 one-byte items fits
    w.u64(1u);
    w.u64(2u);
    w.endSection();
    w.beginSection("oversized");
    w.count(17); // one more than the 16 bytes that follow
    w.u64(1u);
    w.u64(2u);
    w.endSection();
    spit(path, w.finish());

    SnapReader r(path);
    std::uint64_t n = 0;
    r.openSection("sized");
    r.count(n);
    EXPECT_EQ(n, 16u);
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 2u);
    r.closeSection();
    r.openSection("oversized");
    try {
        r.count(n);
        ADD_FAILURE() << "a count past the section was accepted";
    } catch (const SnapError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "section 'oversized': count 17 exceeds the 16 bytes left");
    }
    std::remove(path.c_str());
}

TEST(SnapSerializer, MissingSectionThrows)
{
    const std::string path = tempPath("missing.snap");
    spit(path, sampleImage());
    SnapReader r(path);
    EXPECT_THROW(r.openSection("gamma"), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, FlippedPayloadByteFailsCrc)
{
    std::string image = sampleImage();
    image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x40);
    const std::string path = tempPath("corrupt.snap");
    spit(path, image);
    EXPECT_THROW(SnapReader r(path), SnapError);
    EXPECT_THROW(readSnapshotHeader(path), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, TruncatedFileRejected)
{
    const std::string image = sampleImage();
    const std::string path = tempPath("trunc.snap");
    spit(path, image.substr(0, image.size() - 8));
    EXPECT_THROW(SnapReader r(path), SnapError);
    // Even losing a single trailing byte must fail the CRC/length check.
    spit(path, image.substr(0, image.size() - 1));
    EXPECT_THROW(SnapReader r(path), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, BadMagicRejected)
{
    std::string image = sampleImage();
    image[0] = 'X';
    const std::string path = tempPath("magic.snap");
    spit(path, image);
    EXPECT_THROW(SnapReader r(path), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, MissingFileRejected)
{
    EXPECT_THROW(SnapReader r(tempPath("does_not_exist.snap")), SnapError);
}

TEST(SnapSerializer, DirectoryIsASnapError)
{
    // A size-first reader must refuse a directory before it trusts its
    // "size", and the refusal is a SnapError naming the path.
    const fs::path dir = fs::path(testing::TempDir()) / "snap_is_a_dir";
    fs::create_directories(dir);
    for (const bool header : {false, true}) {
        try {
            if (header)
                readSnapshotHeader(dir.string());
            else
                SnapReader r(dir.string());
            ADD_FAILURE() << "a directory was read as a snapshot";
        } catch (const SnapError& e) {
            EXPECT_NE(std::string(e.what()).find(dir.string()),
                      std::string::npos)
                << e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "not a SnapError: " << e.what();
        }
    }
    fs::remove_all(dir);
}

TEST(SnapSerializer, WrongFormatVersionRejected)
{
    // Patch the version field (the u32 after the 8-byte magic) and re-seal
    // the CRC, so the only defect is the version number itself.
    std::string image = sampleImage();
    const std::uint32_t bogus = kFormatVersion + 7;
    for (std::size_t i = 0; i < 4; ++i)
        image[8 + i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
    const std::uint32_t crc = crc32(image.data(), image.size() - 4);
    for (std::size_t i = 0; i < 4; ++i)
        image[image.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    const std::string path = tempPath("version.snap");
    spit(path, image);
    EXPECT_THROW(SnapReader r(path), SnapError);
    std::remove(path.c_str());
}

TEST(SnapSerializer, ReadSnapshotHeaderMatchesFile)
{
    const std::string image = sampleImage();
    const std::string path = tempPath("header.snap");
    spit(path, image);
    const SnapshotHeader h = readSnapshotHeader(path);
    EXPECT_EQ(h.formatVersion, kFormatVersion);
    EXPECT_EQ(h.tick, 12345u);
    EXPECT_EQ(h.configHash, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(h.fileBytes, image.size());
    ASSERT_EQ(h.sections.size(), 2u);
    EXPECT_EQ(h.sections[0].name, "alpha");
    EXPECT_EQ(h.sections[1].name, "beta");
    EXPECT_EQ(h.sections[1].bytes, 5u);
    std::remove(path.c_str());
}

TEST(SnapSerializer, AtomicWriteFilePublishesAndReplaces)
{
    const fs::path dir = fs::path(testing::TempDir()) / "snap_atomic_dir";
    fs::create_directories(dir);
    const std::string path = (dir / "out.bin").string();

    atomicWriteFile(path, "first");
    EXPECT_EQ(slurp(path), "first");
    atomicWriteFile(path, "second, longer contents");
    EXPECT_EQ(slurp(path), "second, longer contents");

    // No temporary files may survive a successful publish.
    std::size_t entries = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}

TEST(SnapSerializer, AtomicWriteFileToBadDirectoryThrows)
{
    EXPECT_THROW(
        atomicWriteFile(tempPath("no_such_dir/x/y/out.bin"), "data"),
        SnapError);
}

} // namespace
} // namespace dscoh::snap
