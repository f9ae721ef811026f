#include "json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "logging.h"

namespace sleuth::util {

bool
Json::asBool() const
{
    SLEUTH_ASSERT(type_ == Type::Bool, "json: not a bool");
    return bool_;
}

double
Json::asNumber() const
{
    SLEUTH_ASSERT(type_ == Type::Number, "json: not a number");
    return num_;
}

int64_t
Json::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Json::asString() const
{
    SLEUTH_ASSERT(type_ == Type::String, "json: not a string");
    return str_;
}

const Json::Array &
Json::asArray() const
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    return arr_;
}

Json::Array &
Json::asArray()
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    return arr_;
}

const Json::Object &
Json::asObject() const
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    return obj_;
}

Json::Object &
Json::asObject()
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    return obj_;
}

const Json &
Json::at(const std::string &key) const
{
    const Object &o = asObject();
    auto it = o.find(key);
    SLEUTH_ASSERT(it != o.end(), "json: missing key '", key, "'");
    return it->second;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

bool
Json::has(const std::string &key) const
{
    return find(key) != nullptr;
}

void
Json::set(const std::string &key, Json value)
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    obj_[key] = std::move(value);
}

void
Json::push(Json value)
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    arr_.push_back(std::move(value));
}

namespace {

void
escapeTo(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out.push_back(ch);
            }
        }
    }
    out.push_back('"');
}

void
numberTo(std::string &out, double v)
{
    // parse() reads no inf or nan, so they are written as null.
    if (!std::isfinite(v)) {
        out += "null";
    } else if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
    } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += buf;
    }
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        numberTo(out, num_);
        break;
      case Type::String:
        escapeTo(out, str_);
        break;
      case Type::Array:
        out.push_back('[');
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out.push_back(']');
        break;
      case Type::Object:
        out.push_back('{');
        {
            size_t i = 0;
            for (const auto &[k, v] : obj_) {
                if (i++)
                    out.push_back(',');
                newline(depth + 1);
                escapeTo(out, k);
                out.push_back(':');
                if (indent > 0)
                    out.push_back(' ');
                v.dumpTo(out, indent, depth + 1);
            }
        }
        if (!obj_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
JsonReader::fail(const char *why)
{
    if (!failed_)
        error_ = std::string(why) + " at offset " + std::to_string(pos_);
    failed_ = true;
    return false;
}

void
JsonReader::skipWs()
{
    // The C locale's isspace set.
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || (text_[pos_] >= '\t' && text_[pos_] <= '\r')))
        ++pos_;
}

bool
JsonReader::next(char *c)
{
    if (failed_)
        return false;
    skipWs();
    if (pos_ >= text_.size())
        return fail("unexpected end of input");
    *c = text_[pos_];
    return true;
}

bool
JsonReader::peek(Kind *kind)
{
    char c = 0;
    if (!next(&c))
        return false;
    switch (c) {
      case '{': *kind = Kind::Object; break;
      case '[': *kind = Kind::Array; break;
      case '"': *kind = Kind::String; break;
      case 't':
      case 'f': *kind = Kind::Bool; break;
      case 'n': *kind = Kind::Null; break;
      default: *kind = Kind::Number; break;
    }
    return true;
}

bool
JsonReader::enter(Kind kind)
{
    Kind is = Kind::Null;
    if (!peek(&is))
        return false;
    if (is != kind) {
        skipValue();
        return false;
    }
    // Bounded nesting: untrusted payloads must not be able to exhaust
    // the stack of a recursive reader.
    if (depth_ == Json::kMaxParseDepth)
        return fail("nesting too deep");
    ++depth_;
    ++pos_;
    fresh_ = true;
    return true;
}

bool
JsonReader::step(char closer, const char *no_comma)
{
    if (failed_)
        return false;
    skipWs();
    if (at(closer)) {
        ++pos_;
        --depth_;
        fresh_ = false;
        return false;
    }
    if (!fresh_ && !at(','))
        return fail(no_comma);
    pos_ += fresh_ ? 0 : 1;
    fresh_ = false;
    return true;
}

bool
JsonReader::nextKey(std::string_view *key)
{
    if (!step('}', "expected ',' or '}'"))
        return false;
    skipWs();
    if (!lexString(key))
        return false;
    skipWs();
    if (!at(':'))
        return fail("expected ':'");
    ++pos_;
    return true;
}

bool
JsonReader::hex4(unsigned *code)
{
    if (pos_ + 4 > text_.size())
        return fail("bad unicode escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
        char h = text_[pos_++];
        v <<= 4;
        if (h >= '0' && h <= '9')
            v += static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f')
            v += static_cast<unsigned>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F')
            v += static_cast<unsigned>(h - 'A' + 10);
        else
            return fail("bad unicode escape");
    }
    *code = v;
    return true;
}

bool
JsonReader::lexString(std::string_view *out)
{
    if (failed_)
        return false;
    if (!at('"'))
        return fail("expected string");
    // Fast path: with no escapes the value is a view of the text.
    const size_t start = ++pos_;
    size_t end = start;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\')
        ++end;
    if (end < text_.size() && text_[end] == '"') {
        *out = text_.substr(start, end - start);
        pos_ = end + 1;
        return true;
    }
    std::string &s = scratch_;
    s.assign(text_.substr(start, end - start));
    pos_ = end;
    while (pos_ < text_.size()) {
        char c = text_[pos_++];
        if (c == '"') {
            *out = s;
            return true;
        }
        if (c != '\\') {
            s.push_back(c);
            continue;
        }
        if (pos_ >= text_.size())
            break;
        char e = text_[pos_++];
        switch (e) {
          case '"': s.push_back('"'); break;
          case '\\': s.push_back('\\'); break;
          case '/': s.push_back('/'); break;
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          case 'r': s.push_back('\r'); break;
          case 'b': s.push_back('\b'); break;
          case 'f': s.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            if (!hex4(&code))
                return false;
            // UTF-16 surrogate pairs: a high surrogate must be followed
            // by an escaped low surrogate; the pair combines into one
            // supplementary code point (emitting the halves separately
            // would be invalid CESU-8, not UTF-8). Lone surrogates of
            // either kind are parse errors.
            if (code >= 0xd800 && code <= 0xdbff) {
                if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                    text_[pos_ + 1] != 'u')
                    return fail("lone high surrogate");
                pos_ += 2;
                unsigned low = 0;
                if (!hex4(&low))
                    return false;
                if (low < 0xdc00 || low > 0xdfff)
                    return fail("bad low surrogate");
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            } else if (code >= 0xdc00 && code <= 0xdfff) {
                return fail("lone low surrogate");
            }
            // Encode the code point as UTF-8 (1-4 bytes).
            if (code < 0x80) {
                s.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
                s.push_back(static_cast<char>(0xc0 | (code >> 6)));
                s.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else if (code < 0x10000) {
                s.push_back(static_cast<char>(0xe0 | (code >> 12)));
                s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                s.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
                s.push_back(static_cast<char>(0xf0 | (code >> 18)));
                s.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
                s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                s.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
    }
    return fail("unterminated string");
}

bool
JsonReader::readNumber(double *out)
{
    char c = 0;
    if (!next(&c))
        return false;
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E'))
        ++pos_;
    if (pos_ == start)
        return fail("expected value");
    // Exact fast path: strtod's value for an integer of at most 15
    // digits (-0.0 for "-0").
    const std::string_view tok = text_.substr(start, pos_ - start);
    const size_t neg = tok[0] == '-' ? 1 : 0;
    int64_t v = 0;
    size_t i = neg;
    while (i < tok.size() && i - neg < 15 && tok[i] >= '0' && tok[i] <= '9')
        v = v * 10 + (tok[i++] - '0');
    if (i == tok.size() && i > neg) {
        *out = neg ? -static_cast<double>(v) : static_cast<double>(v);
        return true;
    }
    // Otherwise strtod on the whole token, which it must consume.
    const std::string z(tok);
    char *end = nullptr;
    *out = std::strtod(z.c_str(), &end);
    if (end != z.c_str() + z.size())
        return fail("bad number");
    if (!std::isfinite(*out))
        return fail("number out of range");
    return true;
}

bool
JsonReader::literal(std::string_view word)
{
    if (text_.compare(pos_, word.size(), word) != 0)
        return fail("bad literal");
    pos_ += word.size();
    return true;
}

bool
JsonReader::readBool(bool *out)
{
    char c = 0;
    if (!next(&c))
        return false;
    *out = c == 't';
    return literal(*out ? "true" : "false");
}

bool
JsonReader::skipValue()
{
    Kind kind = Kind::Null;
    std::string_view s;
    double d = 0.0;
    bool b = false;
    if (!peek(&kind))
        return false;
    switch (kind) {
      case Kind::Object:
        enter(kind);
        while (nextKey(&s))
            skipValue();
        return !failed_;
      case Kind::Array:
        enter(kind);
        while (nextElement())
            skipValue();
        return !failed_;
      case Kind::String: return readString(&s);
      case Kind::Bool: return readBool(&b);
      case Kind::Null: return literal("null");
      case Kind::Number: break;
    }
    return readNumber(&d);
}

bool
JsonReader::finish()
{
    if (failed_)
        return false;
    skipWs();
    return pos_ == text_.size() || fail("trailing characters");
}

namespace {

/** The DOM of the value at `r` (garbage once r has failed). */
Json
build(JsonReader &r)
{
    JsonReader::Kind kind = JsonReader::Kind::Null;
    std::string_view s;
    double d = 0.0;
    bool b = false;
    if (!r.peek(&kind))
        return Json();
    switch (kind) {
      case JsonReader::Kind::Object: {
        Json::Object obj;
        r.enter(kind);
        while (r.nextKey(&s)) {
            // Copied first: reading the value may reuse the key's buffer.
            std::string key(s);
            obj[std::move(key)] = build(r);
        }
        return Json(std::move(obj));
      }
      case JsonReader::Kind::Array: {
        Json::Array arr;
        r.enter(kind);
        while (r.nextElement())
            arr.push_back(build(r));
        return Json(std::move(arr));
      }
      case JsonReader::Kind::String:
        r.readString(&s);
        return Json(std::string(s));
      case JsonReader::Kind::Bool:
        r.readBool(&b);
        return Json(b);
      case JsonReader::Kind::Null:
        r.skipValue();
        return Json();
      case JsonReader::Kind::Number:
        break;
    }
    r.readNumber(&d);
    return Json(d);
}

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    JsonReader r(text);
    Json v = build(r);
    const bool ok = r.finish();
    if (error)
        *error = r.error();
    return ok ? v : Json();
}

std::string
joinPath(const std::string &path, const char *key)
{
    return path.empty() ? std::string(key) : path + "." + key;
}

std::string
underPath(const std::string &path, const std::string &defect)
{
    const std::string root = "document:";
    if (defect.compare(0, root.size(), root) == 0)
        return path + defect.substr(root.size() - 1);
    return path + (defect[0] == '[' ? "" : ".") + defect;
}

namespace {

// The checked getters' problems, shared with JsonFields. kExpected is
// indexed by Json::Type; kOk is JsonFields' verdict on a good member.
const char *const kExpected[] = {
    "expected null",     "expected a bool",   "expected a number",
    "expected a string", "expected an array", "expected an object"};
const char *const kMissing = "missing field";
const char *const kOk = "";

/** The integer problem of number v, or nullptr when it is exact. */
const char *
intProblem(double v)
{
    // Integers up to 2^53 are exact in a double; past that, and for
    // fractions, a cast to int64 would guess (or be undefined).
    if (v != std::floor(v))
        return "expected an integer";
    if (std::fabs(v) > 9007199254740992.0)
        return "integer out of range";
    return nullptr;
}

/**
 * obj[key] for the checked getters, of kind `type` (Null: any kind).
 * *out is nullptr when a key that is not `required` is absent.
 */
bool
member(const Json &obj, const std::string &path, const char *key,
       bool required, Json::Type type, const Json **out,
       std::string *error)
{
    if (obj.type() != Json::Type::Object) {
        *error = (path.empty() ? std::string("document") : path) +
                 ": expected an object";
        return false;
    }
    *out = obj.find(key);
    if (*out == nullptr && required)
        *error = joinPath(path, key) + ": " + kMissing;
    else if (*out != nullptr && type != Json::Type::Null &&
             (*out)->type() != type)
        *error = joinPath(path, key) + ": " + kExpected[static_cast<int>(type)];
    else
        return true;
    return false;
}

bool
readString(const Json &obj, const std::string &path, const char *key,
           bool required, std::string *out, std::string *error)
{
    const Json *f = nullptr;
    if (!member(obj, path, key, required, Json::Type::String, &f, error))
        return false;
    if (f != nullptr)
        *out = f->asString();
    return true;
}

bool
readInt(const Json &obj, const std::string &path, const char *key,
        bool required, int64_t *out, std::string *error)
{
    const Json *f = nullptr;
    if (!member(obj, path, key, required, Json::Type::Number, &f, error))
        return false;
    if (f == nullptr)
        return true;
    double v = f->asNumber();
    if (const char *problem = intProblem(v)) {
        *error = joinPath(path, key) + ": " + problem;
        return false;
    }
    *out = static_cast<int64_t>(v);
    return true;
}

} // namespace

bool
getField(const Json &obj, const std::string &path, const char *key,
         const Json **out, std::string *error)
{
    return member(obj, path, key, true, Json::Type::Null, out, error);
}

bool
getString(const Json &obj, const std::string &path, const char *key,
          std::string *out, std::string *error)
{
    return readString(obj, path, key, true, out, error);
}

bool
getOptionalString(const Json &obj, const std::string &path,
                  const char *key, std::string *out, std::string *error)
{
    return readString(obj, path, key, false, out, error);
}

bool
getNumber(const Json &obj, const std::string &path, const char *key,
          double *out, std::string *error)
{
    const Json *f = nullptr;
    if (!member(obj, path, key, true, Json::Type::Number, &f, error))
        return false;
    *out = f->asNumber();
    return true;
}

bool
getInt(const Json &obj, const std::string &path, const char *key,
       int64_t *out, std::string *error)
{
    return readInt(obj, path, key, true, out, error);
}

bool
getOptionalInt(const Json &obj, const std::string &path, const char *key,
               int64_t *out, std::string *error)
{
    return readInt(obj, path, key, false, out, error);
}

bool
getBool(const Json &obj, const std::string &path, const char *key,
        bool *out, std::string *error)
{
    const Json *f = nullptr;
    if (!member(obj, path, key, true, Json::Type::Bool, &f, error))
        return false;
    *out = f->asBool();
    return true;
}

bool
getArray(const Json &obj, const std::string &path, const char *key,
         const Json::Array **out, std::string *error)
{
    const Json *f = nullptr;
    if (!member(obj, path, key, true, Json::Type::Array, &f, error))
        return false;
    *out = &f->asArray();
    return true;
}

JsonFields::JsonFields(std::initializer_list<Field> fields)
    : n_(fields.size())
{
    SLEUTH_ASSERT(n_ <= kMaxFields, "json fields: too many");
    std::copy(fields.begin(), fields.end(), fields_);
}

int
JsonFields::find(std::string_view key) const
{
    for (size_t i = 0; i < n_; ++i)
        if (key == fields_[i].name)
            return static_cast<int>(i);
    return -1;
}

void
JsonFields::mark(int i, const char *problem)
{
    state_[i] = problem == nullptr ? kOk : problem;
}

bool
JsonFields::expect(JsonReader &r, int i, Json::Type want)
{
    Json::Type kind = Json::Type::Null;
    if (!r.peek(&kind))
        return false;
    if (kind == want) {
        mark(i, nullptr);
        return true;
    }
    mark(i, kExpected[static_cast<int>(want)]);
    r.skipValue();
    return false;
}

bool
JsonFields::readInto(JsonReader &r, int i)
{
    double v = 0.0;
    std::string_view s;
    if (std::string **out = std::get_if<std::string *>(&fields_[i].into)) {
        if (expect(r, i, Json::Type::String) && r.readString(&s))
            (*out)->assign(s);
    } else if (int64_t **n = std::get_if<int64_t *>(&fields_[i].into)) {
        if (expect(r, i, Json::Type::Number) && r.readNumber(&v)) {
            mark(i, intProblem(v));
            if (state_[i] == kOk)
                **n = static_cast<int64_t>(v);
        }
    } else {
        return false;
    }
    return true;
}

bool
JsonFields::defect(std::string *why) const
{
    for (size_t i = 0; i < n_; ++i) {
        const char *problem = state_[i];
        if (problem == nullptr && fields_[i].required)
            problem = kMissing;
        if (problem != nullptr && problem != kOk) {
            *why = std::string(fields_[i].name) + ": " + problem;
            return true;
        }
    }
    return false;
}

} // namespace sleuth::util
