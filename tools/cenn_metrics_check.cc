/**
 * @file
 * cenn_metrics_check — validates a cenn.metrics.v1 JSONL stream.
 *
 * Used by the metrics smoke tests (and handy interactively) to assert
 * the contract documented in obs/metrics_emitter.h:
 *
 *  - every line parses as a JSON object with the v1 schema tag and
 *    the seq / ts_ms / uptime_ms / reason / counters / gauges /
 *    deltas fields;
 *  - seq counts 0,1,2,... with reason "start" first and "exit" last;
 *  - every counter is monotone non-decreasing from line to line, and
 *    each delta equals the counter increase since the previous line;
 *  - with --min-samples=N, at least N lines are present;
 *  - with --require=a,b,..., the final line carries at least one
 *    counter or gauge whose name contains each listed fragment
 *    (substring match, so session-scoped prefixes like
 *    runtime.session7. don't matter);
 *  - with --expect=name>=VALUE (repeatable; also <= and ==), some
 *    counter or gauge in the exit snapshot whose name contains `name`
 *    satisfies the comparison — e.g. --expect=serve.jobs_completed>=100
 *    asserts the serve subtree actually finished that many jobs.
 *
 * Exit code 0 on success, 1 with a diagnostic on the first violation.
 *
 * Usage:
 *   cenn_metrics_check FILE [--min-samples=N] [--require=p1,p2,...]
 *                      [--expect=name>=VALUE ...]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "serve/json.h"

namespace {

using cenn::JsonValue;

/**
 * True for exactly the metrics-line shape: an object of string or
 * number scalars plus flat name->number sub-objects (null marks a
 * non-finite derived stat).
 */
bool
IsMetricsLine(const JsonValue& line)
{
  if (!line.IsObject()) {
    return false;
  }
  for (const auto& [key, value] : line.object) {
    if (value.IsObject()) {
      for (const auto& [name, v] : value.object) {
        if (!v.IsNumber() && !v.IsNull()) {
          return false;
        }
      }
    } else if (!value.IsString() && !value.IsNumber()) {
      return false;
    }
  }
  return true;
}

/** Top-level number field; NaN when absent or not a number. */
double
NumberField(const JsonValue& line, const std::string& key)
{
  const JsonValue* v = line.Find(key);
  return v != nullptr && v->IsNumber() ? v->number : std::nan("");
}

/** Flat name->value sub-object (empty when absent; null = NaN). */
std::map<std::string, double>
NumberMap(const JsonValue& line, const std::string& key)
{
  std::map<std::string, double> out;
  if (const JsonValue* obj = line.Find(key)) {
    for (const auto& [name, v] : obj->object) {
      out[name] = v.IsNumber() ? v.number : std::nan("");
    }
  }
  return out;
}

/** One --expect=name>=VALUE assertion on the exit snapshot. */
struct Expectation {
  std::string name;
  std::string op;  // ">=", "<=" or "=="
  double value = 0.0;
};

/** Parses "name>=VALUE" (or <=, ==); false on malformed text. */
bool
ParseExpectation(const std::string& text, Expectation* out)
{
  for (const char* op : {">=", "<=", "=="}) {
    const std::size_t pos = text.find(op);
    if (pos == std::string::npos || pos == 0) {
      continue;
    }
    out->name = text.substr(0, pos);
    out->op = op;
    const std::string rhs = text.substr(pos + 2);
    char* end = nullptr;
    out->value = std::strtod(rhs.c_str(), &end);
    return end != rhs.c_str() && *end == '\0';
  }
  return false;
}

bool
Satisfies(const Expectation& e, double actual)
{
  if (e.op == ">=") {
    return actual >= e.value - 1e-9;
  }
  if (e.op == "<=") {
    return actual <= e.value + 1e-9;
  }
  return std::fabs(actual - e.value) <= 1e-9;
}

int
Fail(const char* path, std::size_t line_no, const std::string& what)
{
  std::fprintf(stderr, "cenn_metrics_check: %s:%zu: %s\n", path, line_no,
               what.c_str());
  return 1;
}

}  // namespace

int
main(int argc, char** argv)
{
  const char* path = nullptr;
  long min_samples = 2;  // a valid stream has at least start + exit
  std::vector<std::string> required;
  std::vector<Expectation> expectations;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--min-samples=", 14) == 0) {
      min_samples = std::strtol(arg + 14, nullptr, 10);
    } else if (std::strncmp(arg, "--expect=", 9) == 0) {
      Expectation e;
      if (!ParseExpectation(arg + 9, &e)) {
        std::fprintf(stderr,
                     "cenn_metrics_check: bad --expect '%s' (want "
                     "name>=VALUE, name<=VALUE or name==VALUE)\n",
                     arg + 9);
        return 2;
      }
      expectations.push_back(e);
    } else if (std::strncmp(arg, "--require=", 10) == 0) {
      std::string list(arg + 10);
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!item.empty()) {
          required.push_back(item);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (path == nullptr) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: cenn_metrics_check FILE [--min-samples=N] "
                   "[--require=p1,p2,...] [--expect=name>=VALUE ...]\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: cenn_metrics_check FILE [--min-samples=N] "
                 "[--require=p1,p2,...] [--expect=name>=VALUE ...]\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cenn_metrics_check: cannot open '%s'\n", path);
    return 1;
  }

  std::map<std::string, double> prev_counters;
  std::map<std::string, double> gauges;
  std::string line;
  std::string last_reason;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      return Fail(path, line_no, "empty line");
    }
    JsonValue parsed;
    std::string error;
    if (!cenn::ParseJson(line, &parsed, &error) || !IsMetricsLine(parsed)) {
      return Fail(path, line_no, "line is not a valid metrics object");
    }
    if (parsed.GetString("schema") != "cenn.metrics.v1") {
      return Fail(path, line_no, "bad or missing schema tag");
    }
    const double seq = NumberField(parsed, "seq");
    if (std::isnan(seq) ||
        seq != static_cast<double>(line_no - 1)) {
      return Fail(path, line_no, "seq is not the line index");
    }
    if (std::isnan(NumberField(parsed, "ts_ms")) ||
        std::isnan(NumberField(parsed, "uptime_ms"))) {
      return Fail(path, line_no, "missing ts_ms / uptime_ms");
    }
    const std::string reason = parsed.GetString("reason");
    if (reason.empty()) {
      return Fail(path, line_no, "missing reason");
    }
    if (line_no == 1 && reason != "start") {
      return Fail(path, line_no, "first sample reason is not \"start\"");
    }
    for (const char* key : {"counters", "gauges", "deltas"}) {
      const JsonValue* object = parsed.Find(key);
      if (object == nullptr || !object->IsObject()) {
        return Fail(path, line_no, "missing counters/gauges/deltas");
      }
    }
    const std::map<std::string, double> counters =
        NumberMap(parsed, "counters");
    const std::map<std::string, double> deltas = NumberMap(parsed, "deltas");
    for (const auto& [name, value] : counters) {
      const auto it = prev_counters.find(name);
      const double prev = it == prev_counters.end() ? 0.0 : it->second;
      if (value + 1e-9 < prev) {
        return Fail(path, line_no, "counter '" + name + "' decreased (" +
                                       std::to_string(prev) + " -> " +
                                       std::to_string(value) + ")");
      }
      const auto d = deltas.find(name);
      if (d == deltas.end()) {
        return Fail(path, line_no, "counter '" + name + "' has no delta");
      }
      if (std::fabs(d->second - (value - prev)) > 1e-6) {
        return Fail(path, line_no,
                    "delta of '" + name + "' does not match the increase");
      }
    }
    prev_counters = counters;
    gauges = NumberMap(parsed, "gauges");
    last_reason = reason;
  }

  if (line_no == 0) {
    return Fail(path, 0, "no samples");
  }
  if (last_reason != "exit") {
    return Fail(path, line_no, "last sample reason is '" + last_reason +
                                   "', expected 'exit'");
  }
  if (line_no < static_cast<std::size_t>(min_samples)) {
    return Fail(path, line_no,
                "only " + std::to_string(line_no) + " samples, expected >= " +
                    std::to_string(min_samples));
  }
  // Required fragments are checked against the final (exit) snapshot.
  for (const std::string& fragment : required) {
    bool found = false;
    for (const auto& [name, value] : prev_counters) {
      if (name.find(fragment) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      for (const auto& [name, value] : gauges) {
        if (name.find(fragment) != std::string::npos) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      return Fail(path, line_no,
                  "no counter/gauge matching '" + fragment + "' in the exit "
                  "snapshot");
    }
  }

  // Value expectations run against the exit snapshot too: an entry
  // whose name contains the expectation's name must satisfy it.
  for (const Expectation& e : expectations) {
    bool matched = false;
    bool satisfied = false;
    std::string actuals;
    const std::map<std::string, double>* snapshots[] = {&prev_counters,
                                                         &gauges};
    for (const auto* snapshot : snapshots) {
      for (const auto& [name, value] : *snapshot) {
        if (name.find(e.name) == std::string::npos) {
          continue;
        }
        matched = true;
        if (Satisfies(e, value)) {
          satisfied = true;
        } else {
          actuals += (actuals.empty() ? "" : ", ") + name + "=" +
                     std::to_string(value);
        }
      }
    }
    if (!matched) {
      return Fail(path, line_no, "no counter/gauge matching '" + e.name +
                                     "' in the exit snapshot");
    }
    if (!satisfied) {
      return Fail(path, line_no, "expectation '" + e.name + e.op +
                                     std::to_string(e.value) +
                                     "' not met (" + actuals + ")");
    }
  }

  std::printf("cenn_metrics_check: %s ok (%zu samples)\n", path, line_no);
  return 0;
}
