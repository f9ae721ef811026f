#include "interner.h"

#include <mutex>

#include "util/logging.h"

namespace sleuth::trace {

uint32_t
StringInterner::intern(std::string_view s)
{
    {
        std::shared_lock lock(mu_);
        auto it = ids_.find(s);
        if (it != ids_.end())
            return it->second;
    }
    std::unique_lock lock(mu_);
    return internLocked(s);
}

uint32_t
StringInterner::internLocked(std::string_view s)
{
    // Re-check: another thread may have interned `s` since the caller
    // last looked under the shared lock.
    auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(s);
    ids_.emplace(std::string_view(names_.back()), id);
    return id;
}

void
StringInterner::internAll(std::span<const std::string_view> strs,
                          std::span<uint32_t> ids)
{
    SLEUTH_ASSERT(ids.size() == strs.size(),
                  "internAll output length differs from input");
    // No interner holds 2^32 - 1 strings, so the top id marks a miss.
    constexpr uint32_t kNew = UINT32_MAX;
    bool any_new = false;
    {
        std::shared_lock lock(mu_);
        for (size_t i = 0; i < strs.size(); ++i) {
            auto it = ids_.find(strs[i]);
            any_new |= it == ids_.end();
            ids[i] = it != ids_.end() ? it->second : kNew;
        }
    }
    if (!any_new)
        return;
    // Input order assigns the new ids; a repeat later in the run finds
    // the id its first occurrence just took.
    std::unique_lock lock(mu_);
    for (size_t i = 0; i < strs.size(); ++i)
        if (ids[i] == kNew)
            ids[i] = internLocked(strs[i]);
}

void
StringInterner::resolveAll(std::span<const uint32_t> ids,
                           std::span<const std::string *> out) const
{
    SLEUTH_ASSERT(out.size() == ids.size(),
                  "resolveAll output length differs from input");
    std::shared_lock lock(mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
        SLEUTH_ASSERT(ids[i] < names_.size(), "interner id out of range");
        out[i] = &names_[ids[i]];
    }
}

std::optional<uint32_t>
StringInterner::find(std::string_view s) const
{
    std::shared_lock lock(mu_);
    auto it = ids_.find(s);
    if (it == ids_.end())
        return std::nullopt;
    return it->second;
}

const std::string &
StringInterner::name(uint32_t id) const
{
    std::shared_lock lock(mu_);
    SLEUTH_ASSERT(id < names_.size(), "interner id out of range");
    return names_[id];
}

size_t
StringInterner::size() const
{
    std::shared_lock lock(mu_);
    return names_.size();
}

std::vector<std::string>
StringInterner::namesFrom(size_t from) const
{
    std::shared_lock lock(mu_);
    std::vector<std::string> out;
    if (from >= names_.size())
        return out;
    out.reserve(names_.size() - from);
    for (size_t i = from; i < names_.size(); ++i)
        out.push_back(names_[i]);
    return out;
}

size_t
StringInterner::memoryBytes() const
{
    std::shared_lock lock(mu_);
    size_t bytes = sizeof(*this);
    for (const std::string &s : names_) {
        bytes += sizeof(std::string);
        if (s.capacity() > 15) // libstdc++ SSO threshold
            bytes += s.capacity() + 1;
    }
    // Hash index: bucket array + one node per entry (estimate).
    bytes += ids_.bucket_count() * sizeof(void *);
    bytes += ids_.size() *
             (sizeof(std::string_view) + sizeof(uint32_t) + 2 * sizeof(void *));
    return bytes;
}

} // namespace sleuth::trace
