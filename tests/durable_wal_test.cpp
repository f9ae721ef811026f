// WAL layer torture (DESIGN.md §3.15): CRC32C known answers, frame
// round trips, prefix-valid scanning under every possible truncation
// and under bit flips at every byte, multi-segment append/scan,
// snapshot-file atomicity, and DurableLog rotation/compaction plus
// torn-tail truncation on reopen.

#include "durable/crc32c.h"
#include "durable/durable_log.h"
#include "durable/snapshot.h"
#include "durable/wal.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "temp_dir.h"

using namespace sleuth::durable;
using sleuth::testing::TempDir;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small segment exercising every record kind and an empty payload. */
std::vector<std::pair<RecordKind, std::string>>
sampleRecords()
{
    return {
        {RecordKind::Epoch, "epoch-payload"},
        {RecordKind::InternerDelta, std::string("a\0b", 3)},
        {RecordKind::SpanBatch, std::string(300, 'x')},
        {RecordKind::Eviction, ""},
        {RecordKind::IncidentUpdate, "incident bytes"},
        {RecordKind::PollMarker, "marker"},
    };
}

std::string
sampleSegmentBytes()
{
    std::string bytes;
    for (const auto &[kind, payload] : sampleRecords())
        bytes += encodeFrame(kind, payload);
    return bytes;
}

} // namespace

TEST(Crc32c, KnownAnswerAndChaining)
{
    // RFC 3720 check value for "123456789".
    std::string_view check = "123456789";
    EXPECT_EQ(crc32c(check), 0xE3069283u);
    EXPECT_EQ(crc32c(std::string_view{}), 0u);
    // Chained calls must equal one pass over the concatenation.
    EXPECT_EQ(crc32c(check.substr(5), crc32c(check.substr(0, 5))),
              crc32c(check));
    // Single-bit sensitivity.
    EXPECT_NE(crc32c(std::string_view("123456788")), crc32c(check));
}

TEST(Wal, FrameRoundTripAllKinds)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::string seg = dir.path + "/" + segmentFileName(0);
    writeFile(seg, sampleSegmentBytes());

    SegmentScan scan = scanSegment(seg);
    auto records = sampleRecords();
    ASSERT_EQ(scan.frames.size(), records.size());
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.validBytes, scan.fileBytes);
    uint64_t offset = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(scan.frames[i].kind, records[i].first);
        EXPECT_EQ(scan.frames[i].payload, records[i].second);
        EXPECT_EQ(scan.frames[i].offset, offset);
        offset += 9 + records[i].second.size();
    }

    // Missing file: empty ok, not torn.
    SegmentScan missing = scanSegment(dir.path + "/absent.log");
    EXPECT_TRUE(missing.frames.empty());
    EXPECT_FALSE(missing.torn);
    EXPECT_EQ(missing.fileBytes, 0u);
}

TEST(Wal, TruncationTortureEveryByte)
{
    // Crash artifacts never pick a polite boundary: for EVERY prefix
    // length, the scan must return exactly the fully intact frames and
    // flag anything shorter than the file as torn.
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::string bytes = sampleSegmentBytes();
    std::vector<uint64_t> ends; // cumulative frame end offsets
    {
        uint64_t off = 0;
        for (const auto &[kind, payload] : sampleRecords()) {
            off += 9 + payload.size();
            ends.push_back(off);
        }
    }
    std::string seg = dir.path + "/" + segmentFileName(0);
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
        writeFile(seg, bytes.substr(0, cut));
        SegmentScan scan = scanSegment(seg);
        size_t whole = 0;
        while (whole < ends.size() && ends[whole] <= cut)
            ++whole;
        ASSERT_EQ(scan.frames.size(), whole) << "cut=" << cut;
        uint64_t valid = whole == 0 ? 0 : ends[whole - 1];
        EXPECT_EQ(scan.validBytes, valid) << "cut=" << cut;
        EXPECT_EQ(scan.fileBytes, cut) << "cut=" << cut;
        EXPECT_EQ(scan.torn, cut != valid) << "cut=" << cut;
    }
}

TEST(Wal, BitFlipTortureEveryByte)
{
    // A flipped byte anywhere must truncate the scan at the frame
    // containing it — never crash, never yield a phantom frame.
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::string bytes = sampleSegmentBytes();
    std::vector<uint64_t> ends;
    {
        uint64_t off = 0;
        for (const auto &[kind, payload] : sampleRecords()) {
            off += 9 + payload.size();
            ends.push_back(off);
        }
    }
    std::string seg = dir.path + "/" + segmentFileName(0);
    for (size_t at = 0; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
        writeFile(seg, mutated);
        SegmentScan scan = scanSegment(seg);
        size_t victim = 0; // index of the frame containing byte `at`
        while (ends[victim] <= at)
            ++victim;
        ASSERT_EQ(scan.frames.size(), victim) << "flip at " << at;
        EXPECT_TRUE(scan.torn) << "flip at " << at;
        uint64_t valid = victim == 0 ? 0 : ends[victim - 1];
        EXPECT_EQ(scan.validBytes, valid) << "flip at " << at;
        auto records = sampleRecords();
        for (size_t i = 0; i < scan.frames.size(); ++i)
            EXPECT_EQ(scan.frames[i].payload, records[i].second);
    }
}

TEST(Wal, WriterAppendsAcrossSegments)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::string err;
    {
        WalWriter writer(dir.path, FsyncPolicy::Off);
        ASSERT_TRUE(writer.openSegment(0, 0, &err)) << err;
        EXPECT_TRUE(writer.append(RecordKind::Epoch, "e0"));
        EXPECT_TRUE(writer.append(RecordKind::SpanBatch, "batch-0"));
        EXPECT_TRUE(writer.sync());
        ASSERT_TRUE(writer.openSegment(1, 0, &err)) << err;
        EXPECT_TRUE(writer.append(RecordKind::Epoch, "e1"));
        EXPECT_TRUE(writer.append(RecordKind::PollMarker, "m"));
        writer.close();
    }
    auto segments = listSegments(dir.path);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].first, 0u);
    EXPECT_EQ(segments[1].first, 1u);
    SegmentScan s0 = scanSegment(segments[0].second);
    SegmentScan s1 = scanSegment(segments[1].second);
    ASSERT_EQ(s0.frames.size(), 2u);
    ASSERT_EQ(s1.frames.size(), 2u);
    EXPECT_FALSE(s0.torn);
    EXPECT_FALSE(s1.torn);
    EXPECT_EQ(s0.frames[1].payload, "batch-0");
    EXPECT_EQ(s1.frames[0].payload, "e1");
}

TEST(Snapshot, FileRoundTripAndCorruption)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::string path = dir.path + "/" + snapshotFileName(3);
    std::string payload(1000, '\x7f');
    payload += "tail";
    std::string err;
    ASSERT_TRUE(writeSnapshotFile(path, payload, &err)) << err;

    std::string back;
    ASSERT_TRUE(readSnapshotFile(path, &back, &err)) << err;
    EXPECT_EQ(back, payload);

    // Any flipped byte must fail validation, not return junk.
    std::string bytes = readFile(path);
    for (size_t at : {size_t{0}, size_t{9}, bytes.size() / 2,
                      bytes.size() - 1}) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
        writeFile(path, mutated);
        std::string out;
        err.clear();
        EXPECT_FALSE(readSnapshotFile(path, &out, &err))
            << "flip at " << at;
        EXPECT_FALSE(err.empty());
    }

    // Missing file is a clean failure.
    EXPECT_FALSE(
        readSnapshotFile(dir.path + "/absent.snap", &back, &err));
}

TEST(DurableLog, RotateWithSnapshotCompacts)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    DurableConfig cfg;
    cfg.dir = dir.path;
    cfg.fsyncPolicy = FsyncPolicy::Off;
    std::string err;
    {
        DurableLog log(cfg);
        RecoveredLog empty = log.recover();
        EXPECT_FALSE(empty.haveSegments);
        EXPECT_FALSE(empty.hasSnapshot);
        ASSERT_TRUE(log.openForAppend(empty, "epoch-0", &err)) << err;
        EXPECT_TRUE(log.append(RecordKind::SpanBatch, "b0"));
        EXPECT_TRUE(log.append(RecordKind::PollMarker, "m0"));
        EXPECT_TRUE(log.commit());
        ASSERT_TRUE(log.rotateWithSnapshot("SNAPBYTES", "epoch-1",
                                           &err))
            << err;
        EXPECT_EQ(log.segmentIndex(), 1u);
        EXPECT_TRUE(log.append(RecordKind::PollMarker, "m1"));
        EXPECT_TRUE(log.commit());
    }
    // Compaction deleted the pre-snapshot generation.
    EXPECT_FALSE(std::filesystem::exists(dir.path + "/" +
                                         segmentFileName(0)));
    auto segments = listSegments(dir.path);
    auto snapshots = listSnapshots(dir.path);
    ASSERT_EQ(segments.size(), 1u);
    ASSERT_EQ(snapshots.size(), 1u);
    EXPECT_EQ(segments[0].first, 1u);
    EXPECT_EQ(snapshots[0].first, 1u);

    DurableLog reopened(cfg);
    RecoveredLog rec = reopened.recover();
    EXPECT_TRUE(rec.hasSnapshot);
    EXPECT_EQ(rec.snapshotIndex, 1u);
    EXPECT_EQ(rec.snapshotPayload, "SNAPBYTES");
    ASSERT_EQ(rec.frames.size(), 2u);
    EXPECT_EQ(rec.frames[0].kind, RecordKind::Epoch);
    EXPECT_EQ(rec.frames[0].payload, "epoch-1");
    EXPECT_EQ(rec.frames[1].payload, "m1");
}

TEST(DurableLog, TornTailTruncatedOnReopen)
{
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    DurableConfig cfg;
    cfg.dir = dir.path;
    cfg.fsyncPolicy = FsyncPolicy::Off;
    std::string err;
    {
        DurableLog log(cfg);
        RecoveredLog empty = log.recover();
        ASSERT_TRUE(log.openForAppend(empty, "epoch-0", &err)) << err;
        EXPECT_TRUE(log.append(RecordKind::SpanBatch, "committed"));
        EXPECT_TRUE(log.append(RecordKind::PollMarker, "m0"));
        EXPECT_TRUE(log.commit());
    }
    // Simulate a crash mid-append: half a frame of garbage on the tail.
    std::string seg = dir.path + "/" + segmentFileName(0);
    std::string bytes = readFile(seg);
    uint64_t clean = bytes.size();
    writeFile(seg, bytes + std::string("\x13\x37garbage"));

    DurableLog log(cfg);
    RecoveredLog rec = log.recover();
    EXPECT_EQ(rec.tornSegments, 1u);
    EXPECT_EQ(rec.appendTruncateTo, clean);
    ASSERT_EQ(rec.frames.size(), 3u);
    ASSERT_TRUE(log.openForAppend(rec, "epoch-0", &err)) << err;
    EXPECT_TRUE(log.append(RecordKind::PollMarker, "m1"));
    EXPECT_TRUE(log.commit());

    // The torn bytes are gone; fresh frames follow the clean prefix.
    SegmentScan scan = scanSegment(seg);
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.frames.size(), 4u);
    EXPECT_EQ(scan.frames[3].payload, "m1");
}
