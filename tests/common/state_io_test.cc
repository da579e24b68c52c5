/**
 * @file
 * Unit tests for the checksummed state-file envelope: scalar
 * round-trips, reader bounds, and the corruption property the
 * checkpoint subsystem depends on — flipping any single byte of a
 * state file must make the load fail with a recoverable error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"

using namespace tpcp;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

StateWriter
samplePayload()
{
    StateWriter w;
    w.u8(0xab);
    w.b(true);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-2.5);
    w.str("phase tracker");
    const std::uint8_t block[4] = {1, 2, 3, 4};
    w.raw(block, sizeof(block));
    return w;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not get.
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

constexpr std::uint32_t kMagic = 0x74736574; // "test"
constexpr std::uint32_t kVersion = 3;

} // namespace

TEST(StateIo, ScalarRoundTrip)
{
    StateWriter w = samplePayload();
    StateReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.f64(), -2.5);
    EXPECT_EQ(r.str(), "phase tracker");
    std::uint8_t block[4] = {};
    r.raw(block, sizeof(block));
    EXPECT_EQ(block[3], 4);
    EXPECT_TRUE(r.atEnd());
}

TEST(StateIo, ReaderPastEndRaises)
{
    StateWriter w;
    w.u32(7);
    StateReader r(w.buffer());
    r.u32();
    EXPECT_THROW(r.u8(), Error);
}

TEST(StateIo, EnvelopeRoundTrip)
{
    const std::string path = tmpPath("envelope.state");
    StateWriter w = samplePayload();
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion, w));
    std::vector<std::uint8_t> payload =
        readStateFile(path, kMagic, kVersion);
    EXPECT_EQ(payload, w.buffer());
    std::remove(path.c_str());
}

TEST(StateIo, WrongMagicOrVersionRejected)
{
    const std::string path = tmpPath("magic.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    EXPECT_THROW(readStateFile(path, kMagic + 1, kVersion), Error);
    EXPECT_THROW(readStateFile(path, kMagic, kVersion + 1), Error);
    std::remove(path.c_str());
}

// The property the checkpoint subsystem relies on: every byte of the
// file — header and payload alike — is covered by a structural check
// or the CRC, so corrupting any single byte rejects the load.
TEST(StateIo, AnySingleCorruptByteRejected)
{
    const std::string path = tmpPath("corrupt.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    const std::vector<std::uint8_t> clean = readFileBytes(path);
    ASSERT_GT(clean.size(), 20u);
    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (std::uint8_t mask : {0x01, 0x80}) {
            std::vector<std::uint8_t> bad = clean;
            bad[i] = static_cast<std::uint8_t>(bad[i] ^ mask);
            writeFileBytes(path, bad);
            EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error)
                << "byte " << i << " mask " << unsigned(mask)
                << " not detected";
        }
    }
    std::remove(path.c_str());
}

TEST(StateIo, AnyTruncationRejected)
{
    const std::string path = tmpPath("trunc.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    const std::vector<std::uint8_t> clean = readFileBytes(path);
    for (std::size_t len = 0; len < clean.size(); ++len) {
        writeFileBytes(path, {clean.begin(), clean.begin() + len});
        EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error)
            << "truncation to " << len << " bytes not detected";
    }
    std::remove(path.c_str());
}

TEST(StateIo, TrailingBytesRejected)
{
    const std::string path = tmpPath("trailing.state");
    ASSERT_TRUE(writeStateFile(path, kMagic, kVersion,
                               samplePayload()));
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    bytes.push_back(0);
    writeFileBytes(path, bytes);
    EXPECT_THROW(readStateFile(path, kMagic, kVersion), Error);
    std::remove(path.c_str());
}

TEST(StateIo, MissingFileRaises)
{
    EXPECT_THROW(
        readStateFile(tmpPath("no_such.state"), kMagic, kVersion),
        Error);
}
