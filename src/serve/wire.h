#ifndef CENN_SERVE_WIRE_H_
#define CENN_SERVE_WIRE_H_

/**
 * @file
 * The cenn.serve.v1 wire vocabulary: response construction.
 *
 * Requests are newline-delimited JSON objects parsed with
 * serve/json.h; responses are built field-by-field through JsonWriter
 * (no DOM round-trip) and always carry:
 *
 *   {"schema":"cenn.serve.v1","ok":true|false,"op":"<echoed op>", ...}
 *
 * Failures add `"error":"<code>"` and `"message":"<human text>"`;
 * rejections the client should retry (quota, busy) also add
 * `"retry_after_ms":N`. Error codes are a closed set (see
 * ServeErrorCode) so clients can switch on them without parsing
 * message text.
 *
 * 64-bit quantities (checksums, seeds) are rendered as decimal
 * *strings* — a JSON number is a double and silently rounds above
 * 2^53, which would corrupt exactly the values the protocol exists to
 * compare.
 */

#include <cstdint>
#include <string>

namespace cenn {

/** Protocol identifier stamped on every response line. */
inline constexpr const char* kServeSchema = "cenn.serve.v1";

/** Closed set of machine-readable failure codes. */
enum class ServeErrorCode {
  kParse = 0,       ///< request line is not valid JSON / not an object
  kBadOp = 1,       ///< missing or unknown "op"
  kInvalid = 2,     ///< well-formed request with unacceptable contents
  kQuota = 3,       ///< tenant at its in-flight quota (retryable)
  kBusy = 4,        ///< server at capacity (retryable)
  kDraining = 5,    ///< server is shutting down; no new work
  kUnknownJob = 6,  ///< "job" does not name a known job id
};

/** Wire spelling of a code ("parse", "bad_op", "quota", ...). */
const char* ServeErrorCodeName(ServeErrorCode code);

/**
 * Appends JSON fields to one flat object, inserting commas and
 * escaping strings. Begin is implicit; Finish() closes the object and
 * yields the line (without the trailing newline — framing belongs to
 * the transport).
 */
class JsonWriter
{
  public:
    JsonWriter();

    JsonWriter& String(const std::string& key, const std::string& value);
    JsonWriter& Number(const std::string& key, double value);
    JsonWriter& Int(const std::string& key, std::int64_t value);
    /** 64-bit value as a decimal string (see file comment). */
    JsonWriter& U64Str(const std::string& key, std::uint64_t value);
    JsonWriter& Bool(const std::string& key, bool value);
    /** Pre-serialized JSON (nested object/array) verbatim. */
    JsonWriter& Raw(const std::string& key, const std::string& json);

    std::string Finish();

  private:
    void Key(const std::string& key);

    std::string out_;
    bool first_ = true;
};

/** A writer pre-stamped {"schema":...,"ok":true,"op":op}. */
JsonWriter OkResponse(const std::string& op);

/**
 * A complete error line for `op` with `code` and `message`;
 * `retry_after_ms` >= 0 adds the retry hint field.
 */
std::string ErrorResponse(const std::string& op, ServeErrorCode code,
                          const std::string& message,
                          int retry_after_ms = -1);

}  // namespace cenn

#endif  // CENN_SERVE_WIRE_H_
