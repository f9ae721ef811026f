#pragma once

/**
 * @file
 * JSON: a pull reader (JsonReader, the one JSON lexer), the checked
 * field access decoders use on it (JsonFields) or on a DOM (getters),
 * a small DOM (Json) built by the reader, and a writer. The collectors
 * decode payloads straight from the reader; the DOM serves configs,
 * models, CLI records and repro cases. Numbers are finite doubles.
 */

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sleuth::util {

/** A JSON document node. */
class Json
{
  public:
    /** Kind discriminator. */
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    /** Construct null. */
    Json() : type_(Type::Null) {}
    /** Construct a boolean. */
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    /** Construct a number. */
    Json(double n) : type_(Type::Number), num_(n) {}
    /** Construct a number from an integer. */
    Json(int n) : type_(Type::Number), num_(n) {}
    /** Construct a number from a 64-bit integer. */
    Json(int64_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
    /** Construct a number from an unsigned size. */
    Json(size_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
    /** Construct a string. */
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    /** Construct a string from a literal. */
    Json(const char *s) : type_(Type::String), str_(s) {}
    /** Construct an array. */
    Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
    /** Construct an object. */
    Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

    /** Make an empty array. */
    static Json array() { return Json(Array{}); }
    /** Make an empty object. */
    static Json object() { return Json(Object{}); }

    /** Kind of this node. */
    Type type() const { return type_; }
    /** True when the node is null. */
    bool isNull() const { return type_ == Type::Null; }

    /** Boolean payload (asserts on kind mismatch). */
    bool asBool() const;
    /** Numeric payload (asserts on kind mismatch). */
    double asNumber() const;
    /** Numeric payload truncated to int64. */
    int64_t asInt() const;
    /** String payload (asserts on kind mismatch). */
    const std::string &asString() const;
    /** Array payload (asserts on kind mismatch). */
    const Array &asArray() const;
    /** Mutable array payload. */
    Array &asArray();
    /** Object payload (asserts on kind mismatch). */
    const Object &asObject() const;
    /** Mutable object payload. */
    Object &asObject();

    /** Object member access (asserts when missing). */
    const Json &at(const std::string &key) const;
    /** Object member, or nullptr when absent or this is no object. */
    const Json *find(const std::string &key) const;
    /** True when this is an object containing the key. */
    bool has(const std::string &key) const;
    /** Insert or replace an object member. */
    void set(const std::string &key, Json value);
    /** Append to an array. */
    void push(Json value);

    /** Serialize (indent > 0 pretty-prints); inf and nan as null. */
    std::string dump(int indent = 0) const;

    /** Deepest array/object nesting parse() accepts. */
    static constexpr int kMaxParseDepth = 256;

    /**
     * Parse a JSON document. Nesting deeper than kMaxParseDepth is a
     * parse error ("nesting too deep at offset N"), so untrusted input
     * cannot overflow the stack.
     *
     * @param text full document text
     * @param error receives a description when parsing fails
     * @return the parsed value, or null with non-empty *error on failure
     */
    static Json parse(const std::string &text, std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/**
 * A pull reader over JSON text, one value at a time. peek() a value's
 * kind, then read it, skip it (syntax still checked), or open it and
 * walk it: nextKey() / nextElement() return false at its closing
 * bracket. The first defect fails the reader with Json::parse's message
 * for the same text ("<why> at offset N"); every later call then
 * returns false. Nesting deeper than Json::kMaxParseDepth fails, and so
 * does a number literal that overflows a double.
 */
class JsonReader
{
  public:
    using Kind = Json::Type;

    explicit JsonReader(std::string_view text) : text_(text) {}

    /** The next value's kind, by its first character (else Number). */
    bool peek(Kind *kind);
    /**
     * Open the next value if it is an object or array of `kind`, to
     * walk with nextKey() / nextElement(); else skip it: false.
     */
    bool enter(Kind kind);
    /** The next member's key (valid until the next call); false at '}'. */
    bool nextKey(std::string_view *key);
    /** True when another element follows; false at ']'. */
    bool nextElement() { return step(']', "expected ',' or ']'"); }
    /** An unescaped string, valid until the next call. */
    bool readString(std::string_view *out)
    {
        char c = 0;
        return next(&c) && lexString(out);
    }
    bool readNumber(double *out);
    bool readBool(bool *out);
    bool skipValue();
    /** Require the end of the text (whitespace aside). */
    bool finish();
    /**
     * finish(), then the defect a decoder reports: the reader's error
     * (a syntax error anywhere wins), else `schema` (empty: none).
     */
    std::string verdict(std::string schema)
    {
        return finish() ? std::move(schema) : error_;
    }

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    /**
     * Offset of the next unread byte. Taken before and after
     * skipValue(), it brackets the value's text (with any whitespace
     * before it).
     */
    size_t offset() const { return pos_; }

  private:
    bool fail(const char *why);
    void skipWs();
    bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
    /** Skip whitespace; the next character, or fail at the end. */
    bool next(char *c);
    /** Past a comma to the next item: false at `closer` (leaving it). */
    bool step(char closer, const char *no_comma);
    bool literal(std::string_view word);
    bool hex4(unsigned *code);
    bool lexString(std::string_view *out);

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    /** A container was just opened: its first next*() sees no comma. */
    bool fresh_ = false;
    bool failed_ = false;
    std::string error_;
    /** Unescaped text of the last string that held escapes. */
    std::string scratch_;
};

/**
 * @name Checked field access
 * For decoding untrusted documents without the aborting at()/as*().
 * Each getter reads member `key` of `obj`, whose own path is `path`
 * ("" at the root), and checks its kind. A defect returns false and
 * sets *error (required) to the path and problem, e.g.
 * "rpcs[3].startKernel.resource: missing field". The getOptional*
 * forms accept an absent key and leave *out unchanged.
 */
///@{
/** `path.key`, or `key` alone at the document root. */
std::string joinPath(const std::string &path, const char *key);
/**
 * A defect read with path "" restated under the element's `path`, so
 * decoders build an element's path only to report a defect.
 */
std::string underPath(const std::string &path, const std::string &defect);
bool getField(const Json &obj, const std::string &path, const char *key,
              const Json **out, std::string *error);
bool getString(const Json &obj, const std::string &path, const char *key,
               std::string *out, std::string *error);
bool getOptionalString(const Json &obj, const std::string &path,
                       const char *key, std::string *out,
                       std::string *error);
bool getNumber(const Json &obj, const std::string &path, const char *key,
               double *out, std::string *error);
/** An integral number of magnitude at most 2^53 (exact as a double). */
bool getInt(const Json &obj, const std::string &path, const char *key,
            int64_t *out, std::string *error);
bool getOptionalInt(const Json &obj, const std::string &path,
                    const char *key, int64_t *out, std::string *error);
bool getBool(const Json &obj, const std::string &path, const char *key,
             bool *out, std::string *error);
bool getArray(const Json &obj, const std::string &path, const char *key,
              const Json::Array **out, std::string *error);

/**
 * The getters' counterpart on a JsonReader: one object's fields in the
 * order a getter chain checks them. Members come in any order and may
 * repeat; each field keeps its last occurrence's verdict (the DOM's
 * last-wins), and defect() names the first bad field in list order
 * with the getters' messages.
 */
class JsonFields
{
  public:
    struct Field
    {
        std::string_view name;
        bool required = false;
        /** Where read() puts a good value; nullptr: other() reads it. */
        std::variant<std::nullptr_t, std::string *, int64_t *> into = nullptr;
    };

    JsonFields(std::initializer_list<Field> fields);

    /**
     * Walk the object at `r`, reading each member that has an `into`;
     * other(i, key) consumes any other member (i: its field, or -1).
     * False, with *why set, when the value is no object.
     */
    template <typename Other>
    bool read(JsonReader &r, std::string *why, Other other)
    {
        std::string_view key;
        if (!r.enter(Json::Type::Object)) {
            *why = "document: expected an object";
            return false;
        }
        while (r.nextKey(&key)) {
            int i = find(key);
            if (i < 0 || !readInto(r, i))
                other(i, key);
        }
        return true;
    }
    bool read(JsonReader &r, std::string *why)
    {
        return read(r, why, [&r](int, std::string_view) { r.skipValue(); });
    }
    /** Open field i's value if it is of `kind`; otherwise skip it. */
    bool enter(JsonReader &r, int i, Json::Type kind)
    {
        return expect(r, i, kind) && r.enter(kind);
    }
    /** Record field i's verdict (nullptr: well-formed). */
    void mark(int i, const char *problem);
    /** The first defect in list order, as "name: problem". */
    bool defect(std::string *why) const;

  private:
    static constexpr size_t kMaxFields = 12;
    int find(std::string_view key) const;
    /** Read a member into field i's `into`; false when it has none. */
    bool readInto(JsonReader &r, int i);
    bool expect(JsonReader &r, int i, Json::Type want);

    Field fields_[kMaxFields];
    size_t n_;
    /** nullptr: absent; else "" (well-formed) or the problem. */
    const char *state_[kMaxFields] = {};
};

/**
 * Walk the elements of the array open at `r`: element(why) reads one
 * and records its defect. After the first defect the rest are skipped,
 * and the defect is restated under `name[i]`.
 */
template <typename Element>
void
readElements(JsonReader &r, const std::string &name, std::string *why,
             Element element)
{
    for (size_t i = 0; r.nextElement(); ++i) {
        if (!why->empty()) {
            r.skipValue();
            continue;
        }
        element(why);
        if (!why->empty())
            *why = underPath(name + '[' + std::to_string(i) + ']', *why);
    }
}
///@}

} // namespace sleuth::util
