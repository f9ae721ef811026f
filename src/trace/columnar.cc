#include "columnar.h"

#include "util/logging.h"

namespace sleuth::trace {

StrRef
SpanColumns::arenaAdd(std::string_view s)
{
    SLEUTH_ASSERT(arena_.size() + s.size() <= UINT32_MAX,
                  "span id arena exceeds 4 GiB");
    StrRef r;
    r.off = static_cast<uint32_t>(arena_.size());
    r.len = static_cast<uint32_t>(s.size());
    arena_.append(s.data(), s.size());
    return r;
}

void
SpanColumns::append(const Span &s, StringInterner &interner)
{
    span_id_.push_back(arenaAdd(s.spanId));
    parent_id_.push_back(arenaAdd(s.parentSpanId));
    service_.push_back(interner.intern(s.service));
    name_.push_back(interner.intern(s.name));
    container_.push_back(interner.intern(s.container));
    pod_.push_back(interner.intern(s.pod));
    node_.push_back(interner.intern(s.node));
    kind_.push_back(static_cast<uint8_t>(s.kind));
    status_.push_back(static_cast<uint8_t>(s.status));
    start_.push_back(s.startUs);
    end_.push_back(s.endUs);
}

Span
SpanColumns::materialize(size_t i, const StringInterner &interner) const
{
    SLEUTH_ASSERT(i < size(), "span column index out of range");
    Span s;
    s.spanId = std::string(spanId(i));
    s.parentSpanId = std::string(parentSpanId(i));
    s.service = interner.name(service_[i]);
    s.name = interner.name(name_[i]);
    s.container = interner.name(container_[i]);
    s.pod = interner.name(pod_[i]);
    s.node = interner.name(node_[i]);
    s.kind = kind(i);
    s.status = status(i);
    s.startUs = start_[i];
    s.endUs = end_[i];
    return s;
}

void
SpanColumns::clear()
{
    arena_.clear();
    span_id_.clear();
    parent_id_.clear();
    service_.clear();
    name_.clear();
    container_.clear();
    pod_.clear();
    node_.clear();
    kind_.clear();
    status_.clear();
    start_.clear();
    end_.clear();
}

void
SpanColumns::reserve(size_t spans, size_t arena_bytes)
{
    // std::string::reserve may round a small request up to twice the
    // inline buffer; a string built at its size allocates exactly.
    if (arena_bytes > arena_.capacity()) {
        std::string sized(arena_bytes, '\0');
        sized.assign(arena_);
        arena_.swap(sized);
    }
    span_id_.reserve(spans);
    parent_id_.reserve(spans);
    service_.reserve(spans);
    name_.reserve(spans);
    container_.reserve(spans);
    pod_.reserve(spans);
    node_.reserve(spans);
    kind_.reserve(spans);
    status_.reserve(spans);
    start_.reserve(spans);
    end_.reserve(spans);
}

namespace {

/** Write a trivially-copyable vector as one contiguous raw block. */
template <typename T>
void
encodeColumn(util::BinaryWriter &w, const std::vector<T> &v)
{
    w.bytes(std::string_view(reinterpret_cast<const char *>(v.data()),
                             v.size() * sizeof(T)));
}

/** Read n elements of a raw column block into v; false when short. */
template <typename T>
bool
decodeColumn(util::BinaryReader &r, std::vector<T> &v, size_t n)
{
    std::string_view raw = r.view(n * sizeof(T));
    if (!r.ok())
        return false;
    v.resize(n);
    std::memcpy(v.data(), raw.data(), raw.size());
    return true;
}

} // namespace

void
SpanColumns::encode(util::BinaryWriter &w) const
{
    w.u32(static_cast<uint32_t>(size()));
    w.str(arena_);
    encodeColumn(w, span_id_);
    encodeColumn(w, parent_id_);
    encodeColumn(w, service_);
    encodeColumn(w, name_);
    encodeColumn(w, container_);
    encodeColumn(w, pod_);
    encodeColumn(w, node_);
    encodeColumn(w, kind_);
    encodeColumn(w, status_);
    encodeColumn(w, start_);
    encodeColumn(w, end_);
}

bool
SpanColumns::decode(util::BinaryReader &r, size_t vocabulary)
{
    clear();
    size_t n = r.u32();
    arena_ = r.str();
    bool ok = r.ok() && decodeColumn(r, span_id_, n) &&
              decodeColumn(r, parent_id_, n) &&
              decodeColumn(r, service_, n) &&
              decodeColumn(r, name_, n) &&
              decodeColumn(r, container_, n) &&
              decodeColumn(r, pod_, n) && decodeColumn(r, node_, n) &&
              decodeColumn(r, kind_, n) && decodeColumn(r, status_, n) &&
              decodeColumn(r, start_, n) && decodeColumn(r, end_, n);
    // 64-bit sums: off + len must not wrap past the arena in u32.
    auto inArena = [&](StrRef ref) {
        return uint64_t{ref.off} + ref.len <= arena_.size();
    };
    auto known = [&](uint32_t id) { return id < vocabulary; };
    for (size_t i = 0; ok && i < n; ++i)
        ok = inArena(span_id_[i]) && inArena(parent_id_[i]) &&
             known(service_[i]) && known(name_[i]) &&
             known(container_[i]) && known(pod_[i]) && known(node_[i]) &&
             kind_[i] <= static_cast<uint8_t>(SpanKind::Local) &&
             status_[i] <= static_cast<uint8_t>(StatusCode::Error);
    if (!ok)
        clear();
    return ok;
}

size_t
SpanColumns::memoryBytes() const
{
    size_t bytes = sizeof(*this);
    if (arena_.capacity() > 15)
        bytes += arena_.capacity() + 1;
    bytes += span_id_.capacity() * sizeof(StrRef);
    bytes += parent_id_.capacity() * sizeof(StrRef);
    bytes += service_.capacity() * sizeof(uint32_t);
    bytes += name_.capacity() * sizeof(uint32_t);
    bytes += container_.capacity() * sizeof(uint32_t);
    bytes += pod_.capacity() * sizeof(uint32_t);
    bytes += node_.capacity() * sizeof(uint32_t);
    bytes += kind_.capacity() * sizeof(uint8_t);
    bytes += status_.capacity() * sizeof(uint8_t);
    bytes += start_.capacity() * sizeof(int64_t);
    bytes += end_.capacity() * sizeof(int64_t);
    return bytes;
}

ColumnarTrace::ColumnarTrace(const Trace &t,
                             std::shared_ptr<StringInterner> interner)
    : trace_id_(t.traceId), interner_(std::move(interner))
{
    SLEUTH_ASSERT(interner_ != nullptr,
                  "ColumnarTrace requires an interner");
    size_t arena_bytes = 0;
    for (const Span &s : t.spans)
        arena_bytes += s.spanId.size() + s.parentSpanId.size();
    cols_.reserve(t.spans.size(), arena_bytes);
    for (size_t i = 0; i < t.spans.size(); ++i) {
        cols_.append(t.spans[i], *interner_);
        if (root_ < 0 && t.spans[i].parentSpanId.empty())
            root_ = static_cast<int>(i);
    }
}

Trace
ColumnarTrace::toTrace() const
{
    Trace t;
    t.traceId = trace_id_;
    t.spans.reserve(cols_.size());
    for (size_t i = 0; i < cols_.size(); ++i)
        t.spans.push_back(cols_.materialize(i, *interner_));
    return t;
}

bool
ColumnarTrace::hasError() const
{
    for (size_t i = 0; i < cols_.size(); ++i)
        if (cols_.hasError(i))
            return true;
    return false;
}

bool
ColumnarTrace::touchesService(uint32_t service_id) const
{
    for (size_t i = 0; i < cols_.size(); ++i)
        if (cols_.serviceId(i) == service_id)
            return true;
    return false;
}

void
ColumnarTrace::encode(util::BinaryWriter &w) const
{
    w.str(trace_id_);
    w.i64(root_);
    cols_.encode(w);
}

bool
ColumnarTrace::decode(util::BinaryReader &r,
                      std::shared_ptr<StringInterner> interner)
{
    SLEUTH_ASSERT(interner != nullptr,
                  "ColumnarTrace::decode requires an interner");
    trace_id_ = r.str();
    int64_t root = r.i64();
    interner_ = std::move(interner);
    root_ = -1;
    if (!r.ok() || !cols_.decode(r, interner_->size()))
        return false;
    int64_t first_root = -1;
    for (size_t i = 0; i < cols_.size() && first_root < 0; ++i)
        if (cols_.parentSpanId(i).empty())
            first_root = static_cast<int64_t>(i);
    if (root != first_root)
        return false;
    root_ = static_cast<int>(root);
    return true;
}

size_t
ColumnarTrace::memoryBytes() const
{
    size_t bytes = sizeof(*this) - sizeof(SpanColumns);
    bytes += cols_.memoryBytes();
    if (trace_id_.capacity() > 15)
        bytes += trace_id_.capacity() + 1;
    return bytes;
}

namespace {
size_t
strHeapBytes(const std::string &s)
{
    return s.capacity() > 15 ? s.capacity() + 1 : 0;
}
} // namespace

size_t
approxTraceMemoryBytes(const Trace &t)
{
    size_t bytes = sizeof(Trace) + strHeapBytes(t.traceId);
    bytes += t.spans.capacity() * sizeof(Span);
    for (const Span &s : t.spans) {
        bytes += strHeapBytes(s.spanId) + strHeapBytes(s.parentSpanId) +
                 strHeapBytes(s.service) + strHeapBytes(s.name) +
                 strHeapBytes(s.container) + strHeapBytes(s.pod) +
                 strHeapBytes(s.node);
    }
    return bytes;
}

} // namespace sleuth::trace
