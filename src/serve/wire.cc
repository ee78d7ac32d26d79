#include "serve/wire.h"

#include <cstdio>

#include "obs/stats_io.h"

namespace cenn {

const char*
ServeErrorCodeName(ServeErrorCode code)
{
  switch (code) {
    case ServeErrorCode::kParse:
      return "parse";
    case ServeErrorCode::kBadOp:
      return "bad_op";
    case ServeErrorCode::kInvalid:
      return "invalid";
    case ServeErrorCode::kQuota:
      return "quota";
    case ServeErrorCode::kBusy:
      return "busy";
    case ServeErrorCode::kDraining:
      return "draining";
    case ServeErrorCode::kUnknownJob:
      return "unknown_job";
  }
  return "unknown";
}

JsonWriter::JsonWriter() : out_("{") {}

void
JsonWriter::Key(const std::string& key)
{
  if (!first_) {
    out_ += ',';
  }
  first_ = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
}

JsonWriter&
JsonWriter::String(const std::string& key, const std::string& value)
{
  Key(key);
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter&
JsonWriter::Number(const std::string& key, double value)
{
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter&
JsonWriter::Int(const std::string& key, std::int64_t value)
{
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter&
JsonWriter::U64Str(const std::string& key, std::uint64_t value)
{
  Key(key);
  out_ += '"';
  out_ += std::to_string(value);
  out_ += '"';
  return *this;
}

JsonWriter&
JsonWriter::Bool(const std::string& key, bool value)
{
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter&
JsonWriter::Raw(const std::string& key, const std::string& json)
{
  Key(key);
  out_ += json;
  return *this;
}

std::string
JsonWriter::Finish()
{
  out_ += '}';
  return std::move(out_);
}

JsonWriter
OkResponse(const std::string& op)
{
  JsonWriter w;
  w.String("schema", kServeSchema).Bool("ok", true).String("op", op);
  return w;
}

std::string
ErrorResponse(const std::string& op, ServeErrorCode code,
              const std::string& message, int retry_after_ms)
{
  JsonWriter w;
  w.String("schema", kServeSchema)
      .Bool("ok", false)
      .String("op", op)
      .String("error", ServeErrorCodeName(code))
      .String("message", message);
  if (retry_after_ms >= 0) {
    w.Int("retry_after_ms", retry_after_ms);
  }
  return w.Finish();
}

}  // namespace cenn
