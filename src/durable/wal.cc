#include "wal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "crc32c.h"
#include "obs/metrics.h"
#include "util/file.h"
#include "util/logging.h"

namespace sleuth::durable {

namespace {

/**
 * Body-length sanity cap. A frame body is at most one poll's span
 * batch or one snapshot-sized incident; anything claiming more than
 * this is a corrupt length field, not a real record.
 */
constexpr uint32_t kMaxBodyBytes = 1u << 30;

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

obs::Counter &
recordCounter(RecordKind kind)
{
    static obs::Counter &epoch = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "epoch"}});
    static obs::Counter &interner = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "interner-delta"}});
    static obs::Counter &spans = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "span-batch"}});
    static obs::Counter &evict = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "eviction"}});
    static obs::Counter &incident = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "incident-update"}});
    static obs::Counter &marker = obs::counter(
        "sleuth_wal_records_total", "WAL records appended by kind",
        {{"kind", "poll-marker"}});
    switch (kind) {
    case RecordKind::Epoch:
        return epoch;
    case RecordKind::InternerDelta:
        return interner;
    case RecordKind::SpanBatch:
        return spans;
    case RecordKind::Eviction:
        return evict;
    case RecordKind::IncidentUpdate:
        return incident;
    case RecordKind::PollMarker:
        return marker;
    }
    return marker;
}

} // namespace

const char *
toString(RecordKind kind)
{
    switch (kind) {
    case RecordKind::Epoch:
        return "epoch";
    case RecordKind::InternerDelta:
        return "interner-delta";
    case RecordKind::SpanBatch:
        return "span-batch";
    case RecordKind::Eviction:
        return "eviction";
    case RecordKind::IncidentUpdate:
        return "incident-update";
    case RecordKind::PollMarker:
        return "poll-marker";
    }
    return "unknown";
}

bool
validRecordKind(uint8_t kind)
{
    return kind >= static_cast<uint8_t>(RecordKind::Epoch) &&
           kind <= static_cast<uint8_t>(RecordKind::PollMarker);
}

const char *
toString(FsyncPolicy policy)
{
    switch (policy) {
    case FsyncPolicy::Always:
        return "always";
    case FsyncPolicy::Group:
        return "group";
    case FsyncPolicy::Off:
        return "off";
    }
    return "off";
}

bool
fsyncPolicyFromString(std::string_view name, FsyncPolicy *out)
{
    if (name == "always")
        *out = FsyncPolicy::Always;
    else if (name == "group")
        *out = FsyncPolicy::Group;
    else if (name == "off")
        *out = FsyncPolicy::Off;
    else
        return false;
    return true;
}

std::string
segmentFileName(uint64_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "wal-%010llu.log",
                  static_cast<unsigned long long>(index));
    return buf;
}

std::string
snapshotFileName(uint64_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "snap-%010llu.snap",
                  static_cast<unsigned long long>(index));
    return buf;
}

namespace {

std::vector<std::pair<uint64_t, std::string>>
listByPattern(const std::string &dir, std::string_view prefix,
              std::string_view suffix)
{
    std::vector<std::pair<uint64_t, std::string>> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string_view digits(name.data() + prefix.size(),
                                name.size() - prefix.size() -
                                    suffix.size());
        uint64_t index = 0;
        bool numeric = !digits.empty();
        for (char c : digits) {
            if (c < '0' || c > '9') {
                numeric = false;
                break;
            }
            index = index * 10 + static_cast<uint64_t>(c - '0');
        }
        if (numeric)
            out.emplace_back(index, entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::vector<std::pair<uint64_t, std::string>>
listSegments(const std::string &dir)
{
    return listByPattern(dir, "wal-", ".log");
}

std::vector<std::pair<uint64_t, std::string>>
listSnapshots(const std::string &dir)
{
    return listByPattern(dir, "snap-", ".snap");
}

std::string
encodeFrame(RecordKind kind, std::string_view payload)
{
    std::string body;
    body.reserve(1 + payload.size());
    body.push_back(static_cast<char>(kind));
    body.append(payload.data(), payload.size());

    uint32_t len = static_cast<uint32_t>(body.size());
    uint32_t crc = crc32c(body);
    std::string frame;
    frame.reserve(8 + body.size());
    char header[8];
    std::memcpy(header, &len, 4);
    std::memcpy(header + 4, &crc, 4);
    frame.append(header, 8);
    frame.append(body);
    return frame;
}

SegmentScan
scanSegment(const std::string &path)
{
    SegmentScan scan;
    std::string data;
    if (!util::readFile(path, &data))
        return scan;
    scan.fileBytes = data.size();

    size_t pos = 0;
    while (pos < data.size()) {
        if (data.size() - pos < 8) {
            scan.tornReason = "truncated frame header";
            break;
        }
        uint32_t len, want;
        std::memcpy(&len, data.data() + pos, 4);
        std::memcpy(&want, data.data() + pos + 4, 4);
        if (len < 1 || len > kMaxBodyBytes) {
            scan.tornReason = "implausible frame length";
            break;
        }
        if (data.size() - pos - 8 < len) {
            scan.tornReason = "truncated frame body";
            break;
        }
        std::string_view body(data.data() + pos + 8, len);
        if (crc32c(body) != want) {
            scan.tornReason = "crc mismatch";
            break;
        }
        uint8_t kind = static_cast<uint8_t>(body[0]);
        if (!validRecordKind(kind)) {
            scan.tornReason = "unknown record kind";
            break;
        }
        WalFrame frame;
        frame.kind = static_cast<RecordKind>(kind);
        frame.payload.assign(body.substr(1));
        frame.offset = pos;
        scan.frames.push_back(std::move(frame));
        pos += 8 + len;
        scan.validBytes = pos;
    }
    scan.torn = scan.validBytes < scan.fileBytes;
    return scan;
}

WalWriter::WalWriter(std::string dir, FsyncPolicy policy)
    : dir_(std::move(dir)), policy_(policy)
{
}

WalWriter::~WalWriter() { close(); }

bool
WalWriter::openSegment(uint64_t index, uint64_t truncateTo,
                       std::string *err)
{
    close();
    std::string path = dir_ + "/" + segmentFileName(index);
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) {
        if (err)
            *err = path + ": open: " + std::strerror(errno);
        return false;
    }
    if (::ftruncate(fd, static_cast<off_t>(truncateTo)) != 0) {
        if (err)
            *err = path + ": ftruncate: " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        if (err)
            *err = path + ": lseek: " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    fd_ = fd;
    index_ = index;
    bytes_ = truncateTo;
    return true;
}

bool
WalWriter::append(RecordKind kind, std::string_view payload)
{
    static obs::Histogram &append_ms = obs::histogram(
        "sleuth_wal_append_ms", "WAL frame append latency (ms)");
    static obs::Counter &bytes_total = obs::counter(
        "sleuth_wal_bytes_total", "Bytes appended to the WAL");

    SLEUTH_ASSERT(fd_ >= 0, "WAL append without an open segment");
    auto start = std::chrono::steady_clock::now();
    std::string frame = encodeFrame(kind, payload);
    size_t done = 0;
    while (done < frame.size()) {
        ssize_t n =
            ::write(fd_, frame.data() + done, frame.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            util::warn("wal append failed: ", std::strerror(errno));
            return false;
        }
        done += static_cast<size_t>(n);
    }
    bytes_ += frame.size();
    if (policy_ == FsyncPolicy::Always && !fsyncNow())
        return false;
    append_ms.record(millisSince(start));
    bytes_total.add(static_cast<uint64_t>(frame.size()));
    recordCounter(kind).add(1);
    return true;
}

bool
WalWriter::sync()
{
    if (fd_ < 0 || policy_ == FsyncPolicy::Off)
        return true;
    return fsyncNow();
}

bool
WalWriter::fsyncNow()
{
    static obs::Histogram &fsync_ms = obs::histogram(
        "sleuth_wal_fsync_ms", "WAL fsync latency (ms)");
    auto start = std::chrono::steady_clock::now();
    if (::fsync(fd_) != 0) {
        util::warn("wal fsync failed: ", std::strerror(errno));
        return false;
    }
    fsync_ms.record(millisSince(start));
    return true;
}

void
WalWriter::close()
{
    if (fd_ < 0)
        return;
    if (policy_ != FsyncPolicy::Off)
        fsyncNow();
    ::close(fd_);
    fd_ = -1;
}

} // namespace sleuth::durable
