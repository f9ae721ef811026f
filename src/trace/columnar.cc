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

namespace {

/** Vocabulary fields per span: service, name, container, pod, node. */
constexpr size_t kVocabFields = 5;

} // namespace

ColumnarTrace::ColumnarTrace(const Trace &t,
                             std::shared_ptr<StringInterner> interner)
    : trace_id_(t.traceId), interner_(std::move(interner))
{
    SLEUTH_ASSERT(interner_ != nullptr,
                  "ColumnarTrace requires an interner");
    const size_t n = t.spans.size();
    size_t arena_bytes = 0;
    std::vector<std::string_view> vocab;
    vocab.reserve(kVocabFields * n);
    for (const Span &s : t.spans) {
        arena_bytes += s.spanId.size() + s.parentSpanId.size();
        vocab.insert(vocab.end(),
                     {s.service, s.name, s.container, s.pod, s.node});
    }
    std::vector<uint32_t> ids(vocab.size());
    interner_->internAll(vocab, ids);

    cols_.reserve(n, arena_bytes);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = t.spans[i];
        const uint32_t *id = &ids[kVocabFields * i];
        cols_.span_id_.push_back(cols_.arenaAdd(s.spanId));
        cols_.parent_id_.push_back(cols_.arenaAdd(s.parentSpanId));
        cols_.service_.push_back(id[0]);
        cols_.name_.push_back(id[1]);
        cols_.container_.push_back(id[2]);
        cols_.pod_.push_back(id[3]);
        cols_.node_.push_back(id[4]);
        cols_.kind_.push_back(static_cast<uint8_t>(s.kind));
        cols_.status_.push_back(static_cast<uint8_t>(s.status));
        cols_.start_.push_back(s.startUs);
        cols_.end_.push_back(s.endUs);
        if (root_ < 0 && s.parentSpanId.empty())
            root_ = static_cast<int>(i);
    }
}

Trace
ColumnarTrace::toTrace() const
{
    const size_t n = cols_.size();
    std::vector<uint32_t> ids;
    ids.reserve(kVocabFields * n);
    for (size_t i = 0; i < n; ++i)
        ids.insert(ids.end(), {cols_.service_[i], cols_.name_[i],
                               cols_.container_[i], cols_.pod_[i],
                               cols_.node_[i]});
    std::vector<const std::string *> names(ids.size());
    interner_->resolveAll(ids, names);

    Trace t;
    t.traceId = trace_id_;
    t.spans.resize(n);
    for (size_t i = 0; i < n; ++i) {
        Span &s = t.spans[i];
        const std::string *const *name = &names[kVocabFields * i];
        s.spanId = cols_.spanId(i);
        s.parentSpanId = cols_.parentSpanId(i);
        s.service = *name[0];
        s.name = *name[1];
        s.container = *name[2];
        s.pod = *name[3];
        s.node = *name[4];
        s.kind = cols_.kind(i);
        s.status = cols_.status(i);
        s.startUs = cols_.start_[i];
        s.endUs = cols_.end_[i];
    }
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
