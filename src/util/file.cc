#include "file.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace sleuth::util {

bool
readFile(const std::string &path, std::string *out)
{
    constexpr size_t kBlock = size_t{1} << 16;
    out->clear();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    // The reported size is a hint: the loop reads to EOF either way.
    // One byte past it lets the first read see EOF instead of growing
    // the buffer for an empty second read.
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(path, ec);
    out->resize(ec ? kBlock : static_cast<size_t>(size) + 1);
    size_t used = 0;
    while (in) {
        if (used == out->size())
            out->resize(used + std::max(kBlock, used));
        in.read(out->data() + used,
                static_cast<std::streamsize>(out->size() - used));
        used += static_cast<size_t>(in.gcount());
    }
    out->resize(used);
    return !in.bad();
}

} // namespace sleuth::util
