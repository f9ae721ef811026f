#include "span.h"

#include "util/logging.h"

namespace sleuth::trace {

const char *
toString(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Client: return "client";
      case SpanKind::Server: return "server";
      case SpanKind::Producer: return "producer";
      case SpanKind::Consumer: return "consumer";
      case SpanKind::Local: return "local";
    }
    util::panic("invalid span kind");
}

const char *
toString(StatusCode code)
{
    switch (code) {
      case StatusCode::Unset: return "unset";
      case StatusCode::Ok: return "ok";
      case StatusCode::Error: return "error";
    }
    util::panic("invalid status code");
}

bool
trySpanKindFromString(const std::string &s, SpanKind *out)
{
    for (SpanKind k : {SpanKind::Client, SpanKind::Server,
                       SpanKind::Producer, SpanKind::Consumer,
                       SpanKind::Local})
        if (s == toString(k)) {
            *out = k;
            return true;
        }
    return false;
}

bool
tryStatusCodeFromString(const std::string &s, StatusCode *out)
{
    for (StatusCode c :
         {StatusCode::Unset, StatusCode::Ok, StatusCode::Error})
        if (s == toString(c)) {
            *out = c;
            return true;
        }
    return false;
}

} // namespace sleuth::trace
