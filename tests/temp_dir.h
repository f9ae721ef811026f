#pragma once

// A self-cleaning scratch directory for tests that write files.

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace sleuth::testing {

/** Self-cleaning scratch directory under $TMPDIR. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        const char *base = std::getenv("TMPDIR");
        std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                           "/sleuth-test-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (mkdtemp(buf.data()) != nullptr)
            path = buf.data();
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

} // namespace sleuth::testing
