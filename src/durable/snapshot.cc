#include "snapshot.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "crc32c.h"
#include "util/file.h"

namespace sleuth::durable {

namespace {

constexpr char kMagic[8] = {'S', 'L', 'T', 'H', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;

bool
fsyncPath(const std::string &path, std::string *err)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (err)
            *err = path + ": open: " + std::strerror(errno);
        return false;
    }
    bool ok = ::fsync(fd) == 0;
    if (!ok && err)
        *err = path + ": fsync: " + std::strerror(errno);
    ::close(fd);
    return ok;
}

} // namespace

bool
writeSnapshotFile(const std::string &path, const std::string &payload,
                  std::string *err)
{
    std::string header;
    header.reserve(kHeaderBytes);
    header.append(kMagic, 8);
    uint32_t version = kSnapshotVersion;
    uint64_t len = payload.size();
    uint32_t crc = crc32c(payload);
    char fixed[16];
    std::memcpy(fixed, &version, 4);
    std::memcpy(fixed + 4, &len, 8);
    std::memcpy(fixed + 12, &crc, 4);
    header.append(fixed, 16);

    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (err)
                *err = tmp + ": open failed";
            return false;
        }
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            if (err)
                *err = tmp + ": write failed";
            return false;
        }
    }
    if (!fsyncPath(tmp, err))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (err)
            *err = path + ": rename: " + ec.message();
        return false;
    }
    // Seal the rename itself: fsync the containing directory.
    std::string dir =
        std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
    std::string dirErr;
    fsyncPath(dir, &dirErr); // best-effort: some filesystems refuse
    return true;
}

bool
readSnapshotFile(const std::string &path, std::string *payload,
                 std::string *err)
{
    std::string data;
    if (!util::readFile(path, &data)) {
        if (err)
            *err = path + ": open failed";
        return false;
    }
    if (data.size() < kHeaderBytes) {
        if (err)
            *err = path + ": short header";
        return false;
    }
    if (std::memcmp(data.data(), kMagic, 8) != 0) {
        if (err)
            *err = path + ": bad magic";
        return false;
    }
    uint32_t version;
    uint64_t len;
    uint32_t want;
    std::memcpy(&version, data.data() + 8, 4);
    std::memcpy(&len, data.data() + 12, 8);
    std::memcpy(&want, data.data() + 20, 4);
    if (version != kSnapshotVersion) {
        if (err)
            *err = path + ": unsupported version " +
                   std::to_string(version);
        return false;
    }
    if (data.size() - kHeaderBytes != len) {
        if (err)
            *err = path + ": payload length mismatch";
        return false;
    }
    std::string_view body(data.data() + kHeaderBytes, len);
    if (crc32c(body) != want) {
        if (err)
            *err = path + ": payload crc mismatch";
        return false;
    }
    payload->assign(body);
    return true;
}

} // namespace sleuth::durable
