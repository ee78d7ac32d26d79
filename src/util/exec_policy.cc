#include "util/exec_policy.h"

#include <algorithm>
#include <limits>
#include <set>
#include <span>

#include "util/logging.h"

namespace cenn {

namespace {

constexpr const char* kEngines[] = {"functional", "soa", "arch"};
constexpr const char* kPrecisions[] = {"double", "fixed", "float"};
constexpr const char* kMemories[] = {"ddr3", "hmc-int", "hmc-ext"};
constexpr const char* kPins[] = {"none", "cores", "numa"};

/** One string-valued policy field: grammar key, diagnostic noun,
 *  member, choices, and whether a bare choice token selects it. */
struct ChoiceField {
  const char* key;
  const char* noun;
  std::string ExecPolicy::*member;
  std::span<const char* const> choices;
  bool bare;
};

// Bare-token choice lists are disjoint, so a token names one field.
const ChoiceField kChoiceFields[] = {
    {"engine", "engine", &ExecPolicy::engine, kEngines, true},
    {"precision", "precision", &ExecPolicy::precision, kPrecisions, true},
    {"memory", "memory", &ExecPolicy::memory, kMemories, true},
    {"pin", "pin mode", &ExecPolicy::pin, kPins, false},
};

bool
OneOf(const std::string& value, std::span<const char* const> choices)
{
  return std::any_of(choices.begin(), choices.end(),
                     [&value](const char* c) { return value == c; });
}

/** Checks `value` against the field's choices; false with `*error`. */
bool
CheckChoice(const ChoiceField& field, const std::string& value,
            std::string* error)
{
  if (OneOf(value, field.choices)) {
    return true;
  }
  std::string joined;
  for (const char* c : field.choices) {
    if (!joined.empty()) {
      joined += '|';
    }
    joined += c;
  }
  *error = std::string("unknown ") + field.noun + " '" + value + "' (" +
           joined + ")";
  return false;
}

/** The choice field spelled `key`, or nullptr. */
const ChoiceField*
FindField(const std::string& key)
{
  for (const ChoiceField& f : kChoiceFields) {
    if (key == f.key) {
      return &f;
    }
  }
  return nullptr;
}

/** Parses a positive int; false on junk, zero or overflow. */
bool
ParsePositiveInt(const std::string& value, int* out)
{
  if (value.empty()) {
    return false;
  }
  long long parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return false;
    }
    parsed = parsed * 10 + (c - '0');
    if (parsed > std::numeric_limits<int>::max()) {
      return false;
    }
  }
  if (parsed < 1) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace

bool
ParseExecPolicy(const std::string& text, ExecPolicy* out, std::string* error)
{
  CENN_ASSERT(out != nullptr && error != nullptr,
              "ParseExecPolicy: null output");
  if (text.empty()) {
    *error = "empty exec policy";
    return false;
  }
  ExecPolicy policy = *out;
  std::set<std::string> seen;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t colon = text.find(':', pos);
    const std::string seg = text.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos);
    pos = colon == std::string::npos ? text.size() + 1 : colon + 1;
    if (seg.empty()) {
      *error = "empty segment in exec policy '" + text + "'";
      return false;
    }

    const std::size_t eq = seg.find('=');
    const std::string value =
        eq == std::string::npos ? seg : seg.substr(eq + 1);
    std::string key;
    if (eq != std::string::npos) {
      key = seg.substr(0, eq);
    } else {
      for (const ChoiceField& f : kChoiceFields) {
        if (f.bare && OneOf(seg, f.choices)) {
          key = f.key;
        }
      }
      if (key.empty()) {
        *error = "unknown exec token '" + seg +
                 "' (engine, precision or memory name; or key=value with "
                 "keys engine|precision|memory|shards|pin)";
        return false;
      }
    }

    const ChoiceField* field = FindField(key);
    if (field == nullptr && key != "shards") {
      *error = "unknown exec key '" + key +
               "' (engine|precision|memory|shards|pin)";
      return false;
    }
    if (!seen.insert(key).second) {
      *error = "exec policy sets '" + key + "' twice";
      return false;
    }
    if (field == nullptr) {
      if (!ParsePositiveInt(value, &policy.shards)) {
        *error = "shards '" + value + "' is not a positive integer";
        return false;
      }
    } else {
      if (!CheckChoice(*field, value, error)) {
        return false;
      }
      policy.*(field->member) = value;
    }
  }

  // A switched engine drops the inherited fields it cannot take; a
  // field the text names is left for ValidateExecPolicy to judge.
  if (seen.count("engine") != 0) {
    if (seen.count("memory") == 0 && policy.engine != "arch") {
      policy.memory = "ddr3";
    }
    if (seen.count("precision") == 0 &&
        ((policy.engine == "arch" && policy.precision != "fixed") ||
         (policy.engine != "soa" && policy.precision == "float"))) {
      policy.precision.clear();  // the engine default
    }
  }

  *out = policy;
  return true;
}

bool
ValidateExecPolicy(const ExecPolicy& policy, std::string* error)
{
  CENN_ASSERT(error != nullptr, "ValidateExecPolicy: null error");
  for (const ChoiceField& f : kChoiceFields) {
    const std::string& value = policy.*(f.member);
    // An empty precision means the engine default.
    const bool defaulted =
        f.member == &ExecPolicy::precision && value.empty();
    if (!defaulted && !CheckChoice(f, value, error)) {
      return false;
    }
  }
  if (policy.shards < 1) {
    *error = "shards must be >= 1";
    return false;
  }
  if (policy.precision == "float" && policy.engine != "soa") {
    *error = "precision 'float' is only available on the soa engine, not '" +
             policy.engine + "'";
    return false;
  }
  if (policy.engine == "arch" && !policy.precision.empty() &&
      policy.precision != "fixed") {
    *error = "precision '" + policy.precision +
             "' is not available on the arch engine, which simulates the "
             "Q16.16 datapath (fixed)";
    return false;
  }
  if (policy.engine != "arch" && policy.memory != "ddr3") {
    *error = "memory '" + policy.memory +
             "' is only available on the arch engine, not '" +
             policy.engine + "'";
    return false;
  }
  return true;
}

std::string
FormatExecPolicy(const ExecPolicy& policy)
{
  std::string out = policy.engine;
  if (!policy.precision.empty()) {
    out += ":" + policy.precision;
  }
  if (policy.memory != "ddr3") {
    out += ":" + policy.memory;
  }
  if (policy.shards != 1) {
    out += ":shards=" + std::to_string(policy.shards);
  }
  if (policy.pin != "none") {
    out += ":pin=" + policy.pin;
  }
  return out;
}

}  // namespace cenn
