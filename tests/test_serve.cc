/**
 * @file
 * Tests for the serve subsystem (src/serve): the JSON wire layer, the
 * admission/quota/priority behavior of SolverService, fault recovery
 * and drain semantics, and the TCP transport driven over a real
 * loopback socket — including the headline equivalence property: jobs
 * executed through the service are bit-identical (state checksums) to
 * the same specs run through BatchRunner.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lut/lut_store.h"
#include "models/benchmark_model.h"
#include "runtime/batch_manifest.h"
#include "runtime/batch_runner.h"
#include "runtime/engine_factory.h"
#include "runtime/solver_session.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "serve/wire.h"

namespace cenn {
namespace {

/** Fresh per-test work directory under the gtest temp root. */
std::string
TestDir(const std::string& leaf)
{
  const std::string dir = ::testing::TempDir() + "cenn_serve_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/** Service options tuned for fast tests. */
ServiceOptions
BaseOptions(const std::string& work_dir)
{
  ServiceOptions options;
  options.work_dir = work_dir;
  options.num_threads = 2;
  options.queue_capacity = 16;
  options.retry_after_ms = 1;
  return options;
}

/** One request/response round trip through the service core. */
JsonValue
Call(SolverService& service, const std::string& line)
{
  std::string response;
  service.HandleLine(line, &response);
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(response, &value, &error))
      << error << " in: " << response;
  return value;
}

/** Builds the nested "spec" object from key=value pairs. */
std::string
SpecJson(const std::vector<std::pair<std::string, std::string>>& kv)
{
  JsonWriter spec;
  for (const auto& [key, value] : kv) {
    spec.String(key, value);
  }
  return spec.Finish();
}

/** Builds a submit request line. */
std::string
SubmitLine(const std::string& tenant, const std::string& spec_json,
           const std::string& fault = "")
{
  JsonWriter w;
  w.String("op", "submit").String("tenant", tenant).Raw("spec", spec_json);
  if (!fault.empty()) {
    w.String("fault_inject", fault);
  }
  return w.Finish();
}

/** Submits and returns the accepted job id; fails the test on reject. */
std::string
MustSubmit(SolverService& service, const std::string& tenant,
           const std::string& spec_json, const std::string& fault = "")
{
  const JsonValue r = Call(service, SubmitLine(tenant, spec_json, fault));
  EXPECT_TRUE(r.GetBool("ok", false)) << "submit rejected";
  return r.GetString("job");
}

/** Long-polls the result op until the job is terminal. */
JsonValue
WaitResult(SolverService& service, const std::string& job)
{
  const std::string request = JsonWriter()
                                  .String("op", "result")
                                  .String("job", job)
                                  .Bool("wait", true)
                                  .Int("timeout_ms", 200)
                                  .Finish();
  for (int i = 0; i < 600; ++i) {
    JsonValue r = Call(service, request);
    if (r.GetBool("ok", false)) {
      return r;
    }
  }
  ADD_FAILURE() << "job " << job << " never reached a terminal status";
  return {};
}

/** Status op response for `job`. */
JsonValue
Status(SolverService& service, const std::string& job)
{
  return Call(service, JsonWriter()
                           .String("op", "status")
                           .String("job", job)
                           .Finish());
}

/** Polls until the job reports "running" (it may also already be done). */
void
WaitRunning(SolverService& service, const std::string& job)
{
  for (int i = 0; i < 2000; ++i) {
    const JsonValue s = Status(service, job);
    const std::string status = s.GetString("status");
    if (status == "running" || s.GetBool("done", false)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << job << " never started";
}

/**
 * Snapshot of `job`'s layer 0. "running" is visible before the worker
 * publishes its session, so the first snapshot may draw a retryable
 * busy; this honors the contract and retries.
 */
JsonValue
SnapshotLayer0(SolverService& service, const std::string& job)
{
  const std::string request = JsonWriter()
                                  .String("op", "snapshot")
                                  .String("job", job)
                                  .Int("layer", 0)
                                  .Finish();
  JsonValue snap = Call(service, request);
  for (int i = 0; i < 1000 && snap.GetString("error") == "busy"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    snap = Call(service, request);
  }
  return snap;
}

/** A spec that runs long enough to still be running when poked. */
std::string
BlockerSpec(const std::string& name)
{
  return SpecJson({{"name", name},
                   {"model", "heat"},
                   {"rows", "16"},
                   {"cols", "16"},
                   {"steps", "50000000"},
                   {"seed", "1"}});
}

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsAndArrays)
{
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a":1,"b":"x","c":true,"d":null,"e":[1,2,3],"f":{"g":-2.5}})", &v,
      &error))
      << error;
  EXPECT_TRUE(v.IsObject());
  EXPECT_DOUBLE_EQ(v.GetNumber("a", 0), 1.0);
  EXPECT_EQ(v.GetString("b"), "x");
  EXPECT_TRUE(v.GetBool("c", false));
  ASSERT_NE(v.Find("e"), nullptr);
  EXPECT_EQ(v.Find("e")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("f")->GetNumber("g", 0), -2.5);
}

TEST(ServeJson, QuotedIntegersConvertViaGetNumber)
{
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"checksum":"12345678901234567890"})", &v, &error));
  EXPECT_GT(v.GetNumber("checksum", 0), 1e18);
}

TEST(ServeJson, RejectsMalformedInputWithoutDying)
{
  const char* bad[] = {
      "",          "{",      "}",          "[1,2",        R"({"a")",
      R"({"a":})", "tru",    "nul",        R"("unterm)",  "{}}",
      "1 2",       "--3",    R"({"a":1,})", R"({,"a":1})", "\x01\x02\x03",
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &v, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServeJson, RejectsExcessiveNesting)
{
  std::string deep;
  for (int i = 0; i < 64; ++i) {
    deep += "[";
  }
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(deep, &v, &error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

TEST(ServeWire, EscapeRoundTripsThroughTheParser)
{
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string line =
      JsonWriter().String("v", nasty).Finish();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &v, &error)) << error << " in " << line;
  // Control characters survive as *some* escaped form; quotes and
  // backslashes must round-trip exactly.
  const std::string back = v.GetString("v");
  EXPECT_NE(back.find("a\"b\\c"), std::string::npos);
}

TEST(ServeWire, ErrorResponseCarriesCodeAndRetryHint)
{
  const std::string line =
      ErrorResponse("submit", ServeErrorCode::kQuota, "full", 250);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &v, &error));
  EXPECT_FALSE(v.GetBool("ok", true));
  EXPECT_EQ(v.GetString("error"), "quota");
  EXPECT_DOUBLE_EQ(v.GetNumber("retry_after_ms", 0), 250.0);
  EXPECT_EQ(v.GetString("schema"), "cenn.serve.v1");
}

// ---------------------------------------------------------------------------
// HandleLine robustness (wire fuzz)
// ---------------------------------------------------------------------------

TEST(ServeFuzz, MalformedRequestsNeverKillTheService)
{
  SolverService service(BaseOptions(TestDir("fuzz")));
  const char* cases[] = {
      "",
      "not json at all",
      "{",
      "[1,2,3]",
      "42",
      "\"just a string\"",
      "null",
      "{}",
      R"({"op":42})",
      R"({"op":"nope"})",
      R"({"op":"submit"})",
      R"({"op":"submit","tenant":"t"})",
      R"({"op":"submit","tenant":"t","spec":17})",
      R"({"op":"submit","tenant":"UPPER!","spec":{"model":"heat"}})",
      R"({"op":"status"})",
      R"({"op":"status","job":"zzz"})",
      R"({"op":"result","job":""})",
      R"({"op":"cancel","job":"j999"})",
      R"({"op":"snapshot","job":"j999"})",
  };
  for (const char* text : cases) {
    std::string response;
    EXPECT_TRUE(service.HandleLine(text, &response)) << text;
    JsonValue v;
    std::string error;
    ASSERT_TRUE(ParseJson(response, &v, &error)) << response;
    EXPECT_FALSE(v.GetBool("ok", true)) << text << " -> " << response;
    EXPECT_FALSE(v.GetString("error").empty());
  }

  // Deterministic byte soup: every line must produce a parseable
  // error response and leave the service serving.
  std::mt19937 rng(20260809);
  const std::string alphabet = R"( {}[]":,abcdef0123\n\\tru-+.eE)";
  for (int i = 0; i < 500; ++i) {
    std::string line;
    const std::size_t len = 1 + rng() % 120;
    for (std::size_t k = 0; k < len; ++k) {
      line += alphabet[rng() % alphabet.size()];
    }
    std::string response;
    EXPECT_TRUE(service.HandleLine(line, &response));
    JsonValue v;
    std::string error;
    EXPECT_TRUE(ParseJson(response, &v, &error)) << response;
    EXPECT_EQ(v.GetString("schema"), "cenn.serve.v1");
  }

  // Still alive and serving after all of that.
  const JsonValue ping = Call(service, R"({"op":"ping"})");
  EXPECT_TRUE(ping.GetBool("ok", false));
  EXPECT_EQ(ping.GetString("state"), "serving");
}

TEST(ServeFuzz, SubmitValidationReportsPreciseKeys)
{
  SolverService service(BaseOptions(TestDir("validate")));

  // Unknown model.
  JsonValue r = Call(service, SubmitLine("t", SpecJson({{"model", "nope"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("model"), std::string::npos);

  // Bad number and unknown key, both reported in one diagnostic.
  r = Call(service, SubmitLine("t", SpecJson({{"model", "heat"},
                                              {"rows", "zero"},
                                              {"bogus", "1"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_NE(r.GetString("message").find("rows"), std::string::npos);
  EXPECT_NE(r.GetString("message").find("bogus"), std::string::npos);

  // The size cap guards the server against resource exhaustion.
  r = Call(service, SubmitLine("t", SpecJson({{"model", "heat"},
                                              {"rows", "4096"},
                                              {"cols", "4096"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");

  // Tenant names feed stat names and are validated strictly.
  r = Call(service, SubmitLine("Bad Tenant!",
                               SpecJson({{"model", "heat"}})));
  EXPECT_FALSE(r.GetBool("ok", true));

  // A bad fault spec is a reject, not a fatal.
  r = Call(service, SubmitLine("t", SpecJson({{"model", "heat"}}),
                               "garbage@@spec"));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");

  // Nothing was ever admitted.
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);
}

TEST(ServeFuzz, RemovedExecKeysAreRejected)
{
  // "exec" is the one spec key for how a job runs; the old per-field
  // keys are rejected even with values the policy would accept.
  SolverService service(BaseOptions(TestDir("removed_keys")));
  const std::pair<const char*, const char*> removed[] = {
      {"engine", "soa"},       {"engine", "double"},
      {"precision", "double"}, {"memory", "hmc-int"},
      {"kernel", "simd"},      {"shards", "2"}};
  for (const auto& [key, value] : removed) {
    const JsonValue r = Call(
        service, SubmitLine("t", SpecJson({{"model", "heat"}, {key, value}})));
    EXPECT_FALSE(r.GetBool("ok", true)) << key;
    EXPECT_EQ(r.GetString("error"), "invalid") << key;
    EXPECT_NE(r.GetString("message").find(std::string("key '") + key +
                                          "': unknown key"),
              std::string::npos)
        << r.GetString("message");
  }
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);
}

TEST(ServeFuzz, KernelSpellingsAndIgnoredSettingsAreRejected)
{
  // The SoA engine has one kernel, so an exec naming a kernel path is
  // invalid, and so is one naming a setting its engine would ignore.
  SolverService service(BaseOptions(TestDir("exec_rules")));
  const std::pair<const char*, const char*> cases[] = {
      {"soa:blocked", "unknown exec token 'blocked'"},
      {"simd", "unknown exec token 'simd'"},
      {"soa:kernel=auto", "unknown exec key 'kernel'"},
      {"arch:double", "arch engine"},
      {"soa:hmc-int", "memory 'hmc-int'"}};
  for (const auto& [exec, want] : cases) {
    const JsonValue r = Call(
        service,
        SubmitLine("t", SpecJson({{"model", "heat"}, {"exec", exec}})));
    EXPECT_FALSE(r.GetBool("ok", true)) << exec;
    EXPECT_EQ(r.GetString("error"), "invalid") << exec;
    EXPECT_NE(r.GetString("message").find(want), std::string::npos)
        << r.GetString("message");
  }
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);
}

TEST(ServeFuzz, HostileNumbersAreRejectedNotUndefined)
{
  SolverService service(BaseOptions(TestDir("hostile")));

  // rows*cols wraps size_t (2^32 * 2^32 == 0) — the max_cells guard
  // must reject it anyway.
  JsonValue r = Call(service,
                     R"({"op":"submit","tenant":"t","spec":)"
                     R"({"model":"heat","rows":4294967296,)"
                     R"("cols":4294967296}})");
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");

  // Doubles outside the long-long range must not reach the cast; they
  // render as scientific notation and fail the integer grammar.
  r = Call(service,
           R"({"op":"submit","tenant":"t","spec":)"
           R"({"model":"heat","rows":1e300,"cols":8}})");
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");

  // Digit strings that overflow uint64 are rejected, not wrapped.
  r = Call(service, SubmitLine("t", SpecJson({{"model", "heat"},
                                              {"steps",
                                               "99999999999999999999"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("steps"), std::string::npos);

  // Magnitudes beyond int range on int-typed keys.
  r = Call(service, SubmitLine("t", SpecJson({{"model", "heat"},
                                              {"priority",
                                               "4294967296"}})));
  EXPECT_FALSE(r.GetBool("ok", true));

  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);

  // Hostile result/snapshot parameters degrade to bounded waits and
  // range errors on a real job.
  const std::string id =
      MustSubmit(service, "t", SpecJson({{"model", "heat"},
                                         {"rows", "8"},
                                         {"cols", "8"},
                                         {"steps", "32"}}));
  r = Call(service, "{\"op\":\"result\",\"job\":\"" + id +
                        "\",\"wait\":true,\"timeout_ms\":-1e308}");
  EXPECT_EQ(r.GetString("schema"), "cenn.serve.v1");  // no UB, clamped to 0
  const JsonValue done = WaitResult(service, id);
  EXPECT_TRUE(done.GetBool("ok", false));
  r = Call(service, "{\"op\":\"snapshot\",\"job\":\"" + id +
                        "\",\"layer\":1e300}");
  EXPECT_FALSE(r.GetBool("ok", true));  // finished / bad layer, not UB
}

TEST(ServeService, PoolRejectedSubmitKeepsRegistryConsistent)
{
  ServiceOptions options = BaseOptions(TestDir("retract"));
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.max_in_flight = 64;  // admission is no longer the tight bound
  options.tenant_quota = 0;
  SolverService service(options);

  const std::string running = MustSubmit(service, "t", BlockerSpec("r"));
  WaitRunning(service, running);
  const std::string queued = MustSubmit(service, "t", BlockerSpec("q"));

  // The pool queue is full: the submit is rejected and the
  // provisional record retracted — its id resolves nowhere, but the
  // record stays alive so a racing drain sweep never touches freed
  // memory.
  const JsonValue busy = Call(service, SubmitLine("t", BlockerSpec("x")));
  EXPECT_FALSE(busy.GetBool("ok", true));
  EXPECT_EQ(busy.GetString("error"), "busy");
  const std::string ghost =
      "j" + std::to_string(service.Jobs().TotalCreated());
  const JsonValue s = Status(service, ghost);
  EXPECT_FALSE(s.GetBool("ok", true));
  EXPECT_EQ(s.GetString("error"), "unknown_job");

  // The drain sweep skips the retracted record and interrupts the
  // live ones normally.
  service.Drain();
  for (const std::string& job : {running, queued}) {
    EXPECT_EQ(WaitResult(service, job).GetString("status"), "interrupted")
        << job;
  }
}

// ---------------------------------------------------------------------------
// Job lifecycle through the service core
// ---------------------------------------------------------------------------

TEST(ServeService, JobRunsToCompletionWithFullResult)
{
  SolverService service(BaseOptions(TestDir("basic")));
  const std::string job = MustSubmit(
      service, "alice",
      SpecJson({{"name", "basic"}, {"model", "heat"}, {"rows", "12"},
                {"cols", "12"}, {"steps", "40"}, {"seed", "7"}}));
  EXPECT_EQ(job, "j1");

  const JsonValue result = WaitResult(service, job);
  EXPECT_EQ(result.GetString("status"), "ok");
  EXPECT_EQ(result.GetString("tenant"), "alice");
  EXPECT_DOUBLE_EQ(result.GetNumber("steps_done", 0), 40.0);
  EXPECT_DOUBLE_EQ(result.GetNumber("steps_executed", 0), 40.0);
  EXPECT_NE(result.GetString("checksum"), "0");
  EXPECT_DOUBLE_EQ(result.GetNumber("attempts", 0), 1.0);

  // Terminal status is also visible through the status op.
  const JsonValue status = Status(service, job);
  EXPECT_EQ(status.GetString("status"), "ok");
  EXPECT_TRUE(status.GetBool("done", false));

  // The serve.* subtree recorded the completion, per tenant too.
  const std::string dump = service.Stats().DumpJson();
  EXPECT_NE(dump.find("serve.jobs_completed"), std::string::npos);
  EXPECT_NE(dump.find("serve.tenant.alice.completed"), std::string::npos);
  EXPECT_NE(dump.find("runtime.pool."), std::string::npos);
}

TEST(ServeService, ChecksumsMatchBatchRunnerAcross100Jobs)
{
  // The headline property: the same specs produce bit-identical final
  // states whether run by cenn_batch's runner or through the service,
  // regardless of scheduling, quotas or backpressure along the way.
  constexpr int kJobs = 105;
  const char* models[] = {"heat", "reaction_diffusion", "fisher"};
  const char* tenants[] = {"alice", "bob", "carol"};

  std::vector<BatchJobSpec> specs(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    BatchJobSpec& s = specs[i];
    s.name = "eq" + std::to_string(i);
    s.model = models[i % 3];
    s.rows = 8 + i % 5;
    s.cols = 8 + (i * 2) % 5;
    s.steps = 20 + i % 21;
    s.seed = 1000 + i;
    s.has_seed = true;
    if (i % 2 != 0) {
      s.exec.precision = "double";  // functional engine at double
    }
    s.priority = i % 4;
  }

  BatchOptions batch_options;
  batch_options.out_dir = TestDir("eq_batch");
  batch_options.num_threads = 4;
  std::map<std::string, std::uint64_t> reference;
  for (const JobResult& r : BatchRunner(specs, batch_options).RunAll()) {
    ASSERT_EQ(r.status, JobStatus::kOk) << r.name;
    reference[r.name] = r.checksum;
  }

  // Pin every model's LUT tables resident for the whole serve phase:
  // the store then satisfies each fixed-precision job by sharing, so
  // the 105 jobs below run with zero table builds — and must still
  // reproduce the batch runner's checksums bit-for-bit.
  std::vector<LutBankHandle> pinned;
  for (const char* name : models) {
    ModelConfig mc;
    mc.rows = 8;
    mc.cols = 8;
    const SolverProgram program = MakeProgram(*MakeModel(name, mc));
    pinned.push_back(
        LutStore::Global().Acquire(program.spec, program.lut_config));
  }
  const std::uint64_t builds_before = LutStore::Global().Builds();
  const std::uint64_t shared_before = LutStore::Global().SharedAcquires();

  ServiceOptions options = BaseOptions(TestDir("eq_serve"));
  options.num_threads = 4;
  options.queue_capacity = 16;
  options.tenant_quota = 12;
  SolverService service(options);

  // Submit everything as fast as the admission controller allows;
  // quota/busy rejections are the backpressure contract and must be
  // retryable, never fatal and never unboundedly queued.
  std::vector<std::string> ids(kJobs);
  int rejections = 0;
  for (int i = 0; i < kJobs; ++i) {
    const std::string line = SubmitLine(
        tenants[i % 3],
        SpecJson({{"name", specs[i].name},
                  {"model", specs[i].model},
                  {"rows", std::to_string(specs[i].rows)},
                  {"cols", std::to_string(specs[i].cols)},
                  {"steps", std::to_string(specs[i].steps)},
                  {"seed", std::to_string(specs[i].seed)},
                  {"exec", FormatExecPolicy(specs[i].exec)},
                  {"priority", std::to_string(specs[i].priority)}}));
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 20000) << "submit " << i << " starved";
      const JsonValue r = Call(service, line);
      if (r.GetBool("ok", false)) {
        ids[i] = r.GetString("job");
        break;
      }
      const std::string code = r.GetString("error");
      ASSERT_TRUE(code == "quota" || code == "busy") << code;
      EXPECT_GE(r.GetNumber("retry_after_ms", -1), 0.0);
      ++rejections;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // With 105 jobs against a 20-deep in-flight bound, backpressure
  // must actually have engaged.
  EXPECT_GT(rejections, 0);

  for (int i = 0; i < kJobs; ++i) {
    const JsonValue result = WaitResult(service, ids[i]);
    EXPECT_EQ(result.GetString("status"), "ok") << specs[i].name;
    EXPECT_EQ(result.GetString("checksum"),
              std::to_string(reference[specs[i].name]))
        << specs[i].name;
  }

  // Sharing engaged: the pinned tables served every LUT-backed job
  // (no job built its own copy), and at least the LUT-backed jobs
  // recorded shared acquires.
  EXPECT_EQ(LutStore::Global().Builds(), builds_before);
  EXPECT_GT(LutStore::Global().SharedAcquires(), shared_before);
}

TEST(ServeService, QuotaAndCapacityRejectionsAreBoundedAndRetryable)
{
  ServiceOptions options = BaseOptions(TestDir("quota"));
  options.num_threads = 1;
  options.tenant_quota = 2;
  options.max_in_flight = 3;
  SolverService service(options);

  const std::string blocker = MustSubmit(service, "alice", BlockerSpec("b1"));
  WaitRunning(service, blocker);
  const std::string queued = MustSubmit(service, "alice", BlockerSpec("b2"));

  // Third submit for the same tenant: quota reject with a retry hint,
  // and crucially *not* queued.
  const JsonValue rejected =
      Call(service, SubmitLine("alice", BlockerSpec("b3")));
  EXPECT_FALSE(rejected.GetBool("ok", true));
  EXPECT_EQ(rejected.GetString("error"), "quota");
  EXPECT_GE(rejected.GetNumber("retry_after_ms", -1), 1.0);
  EXPECT_EQ(service.Jobs().TotalCreated(), 2u);

  // Another tenant still gets in (global bound 3 admits one more)...
  const std::string other = MustSubmit(service, "bob", BlockerSpec("b4"));
  // ...but the next one hits the global in-flight bound.
  const JsonValue busy = Call(service, SubmitLine("carol", BlockerSpec("b5")));
  EXPECT_FALSE(busy.GetBool("ok", true));
  EXPECT_EQ(busy.GetString("error"), "busy");

  // Cancel everything; released capacity admits new work again.
  for (const std::string& job : {blocker, queued, other}) {
    Call(service, JsonWriter()
                      .String("op", "cancel")
                      .String("job", job)
                      .Finish());
    const JsonValue r = WaitResult(service, job);
    EXPECT_EQ(r.GetString("status"), "cancelled") << job;
  }
  const std::string after = MustSubmit(
      service, "alice",
      SpecJson({{"model", "heat"}, {"rows", "8"}, {"cols", "8"},
                {"steps", "20"}, {"seed", "3"}}));
  EXPECT_EQ(WaitResult(service, after).GetString("status"), "ok");
}

TEST(ServeService, PriorityOrdersDispatchAcrossTenants)
{
  ServiceOptions options = BaseOptions(TestDir("priority"));
  options.num_threads = 1;
  options.tenant_quota = 0;  // quotas off; this test is about ordering
  SolverService service(options);

  const std::string blocker = MustSubmit(service, "alice", BlockerSpec("bk"));
  WaitRunning(service, blocker);

  auto spec_with_priority = [](const std::string& name, int priority) {
    return SpecJson({{"name", name},
                     {"model", "heat"},
                     {"rows", "8"},
                     {"cols", "8"},
                     {"steps", "20"},
                     {"seed", "2"},
                     {"priority", std::to_string(priority)}});
  };
  const std::string low = MustSubmit(service, "bob",
                                     spec_with_priority("low", 0));
  const std::string high = MustSubmit(service, "carol",
                                      spec_with_priority("high", 9));
  const std::string mid = MustSubmit(service, "bob",
                                     spec_with_priority("mid", 3));

  Call(service, JsonWriter()
                    .String("op", "cancel")
                    .String("job", blocker)
                    .Finish());
  WaitResult(service, blocker);
  for (const std::string& job : {low, high, mid}) {
    WaitResult(service, job);
  }

  const double seq_low = Status(service, low).GetNumber("dispatch_seq", -1);
  const double seq_high = Status(service, high).GetNumber("dispatch_seq", -1);
  const double seq_mid = Status(service, mid).GetNumber("dispatch_seq", -1);
  EXPECT_LT(seq_high, seq_mid);
  EXPECT_LT(seq_mid, seq_low);
}

TEST(ServeService, CancelWorksQueuedAndRunning)
{
  ServiceOptions options = BaseOptions(TestDir("cancel"));
  options.num_threads = 1;
  options.tenant_quota = 0;
  SolverService service(options);

  const std::string running = MustSubmit(service, "t", BlockerSpec("r"));
  WaitRunning(service, running);
  const std::string queued = MustSubmit(service, "t", BlockerSpec("q"));

  // Queued cancel finalizes immediately without ever dispatching.
  JsonValue r = Call(service, JsonWriter()
                                  .String("op", "cancel")
                                  .String("job", queued)
                                  .Finish());
  EXPECT_TRUE(r.GetBool("ok", false));
  const JsonValue queued_result = WaitResult(service, queued);
  EXPECT_EQ(queued_result.GetString("status"), "cancelled");
  EXPECT_EQ(queued_result.GetString("checksum"), "0");

  // Running cancel stops at a slice boundary.
  r = Call(service, JsonWriter()
                        .String("op", "cancel")
                        .String("job", running)
                        .Finish());
  EXPECT_TRUE(r.GetBool("ok", false));
  const JsonValue running_result = WaitResult(service, running);
  EXPECT_EQ(running_result.GetString("status"), "cancelled");

  // Cancelling a terminal job is a no-op, not an error.
  r = Call(service, JsonWriter()
                        .String("op", "cancel")
                        .String("job", running)
                        .Finish());
  EXPECT_TRUE(r.GetBool("ok", false));
  EXPECT_FALSE(r.GetBool("cancelled", true));
}

TEST(ServeService, GuardTripRecoversFromCheckpointAndMatchesCleanRun)
{
  ServiceOptions options = BaseOptions(TestDir("recover"));
  options.guard_enabled = true;
  options.guard.check_every = 1;
  options.max_retries = 2;
  SolverService service(options);

  const std::string spec =
      SpecJson({{"model", "heat"}, {"rows", "12"}, {"cols", "12"},
                {"steps", "60"}, {"seed", "7"}, {"checkpoint_every", "10"}});

  const std::string clean = MustSubmit(service, "t", spec);
  const JsonValue clean_result = WaitResult(service, clean);
  ASSERT_EQ(clean_result.GetString("status"), "ok");

  // A state corruption mid-run trips the guard; the retry restores
  // the last good checkpoint and converges to the clean checksum.
  const std::string flipped = MustSubmit(service, "t", spec, "flip@30");
  const JsonValue flip_result = WaitResult(service, flipped);
  EXPECT_EQ(flip_result.GetString("status"), "recovered");
  EXPECT_GE(flip_result.GetNumber("attempts", 0), 2.0);
  EXPECT_EQ(flip_result.GetString("checksum"),
            clean_result.GetString("checksum"));

  // A thrown crash takes the same path.
  const std::string crashed = MustSubmit(service, "t", spec, "crash@20");
  const JsonValue crash_result = WaitResult(service, crashed);
  EXPECT_EQ(crash_result.GetString("status"), "recovered");
  EXPECT_EQ(crash_result.GetString("checksum"),
            clean_result.GetString("checksum"));

  // The server kept serving throughout.
  EXPECT_TRUE(Call(service, R"({"op":"ping"})").GetBool("ok", false));
}

TEST(ServeService, ExhaustedRetriesReportDivergedWithoutKillingTheServer)
{
  ServiceOptions options = BaseOptions(TestDir("diverged"));
  options.guard_enabled = true;
  options.guard.check_every = 1;
  options.max_retries = 0;  // fail fast: one guard trip is terminal
  SolverService service(options);

  const std::string job = MustSubmit(
      service, "t",
      SpecJson({{"model", "heat"}, {"rows", "12"}, {"cols", "12"},
                {"steps", "60"}, {"seed", "7"}}),
      "flip@30");
  const JsonValue result = WaitResult(service, job);
  EXPECT_EQ(result.GetString("status"), "diverged");
  EXPECT_FALSE(result.GetString("message").empty());

  // The failure is the job's, not the server's.
  const JsonValue ping = Call(service, R"({"op":"ping"})");
  EXPECT_TRUE(ping.GetBool("ok", false));
  const std::string next = MustSubmit(
      service, "t",
      SpecJson({{"model", "heat"}, {"rows", "8"}, {"cols", "8"},
                {"steps", "20"}, {"seed", "4"}}));
  EXPECT_EQ(WaitResult(service, next).GetString("status"), "ok");
}

TEST(ServeService, SnapshotPausesAtSliceBoundaryAndResumes)
{
  ServiceOptions options = BaseOptions(TestDir("snapshot"));
  options.num_threads = 1;
  SolverService service(options);

  const std::string job = MustSubmit(service, "t", BlockerSpec("snap"));
  WaitRunning(service, job);

  const JsonValue snap = SnapshotLayer0(service, job);
  ASSERT_TRUE(snap.GetBool("ok", false)) << snap.GetString("message");
  EXPECT_DOUBLE_EQ(snap.GetNumber("rows", 0), 16.0);
  EXPECT_DOUBLE_EQ(snap.GetNumber("cols", 0), 16.0);
  const JsonValue* values = snap.Find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_TRUE(values->IsArray());
  EXPECT_EQ(values->array.size(), 16u * 16u);

  // Out-of-range layer is a clean reject.
  const JsonValue bad = Call(service, JsonWriter()
                                          .String("op", "snapshot")
                                          .String("job", job)
                                          .Int("layer", 99)
                                          .Finish());
  EXPECT_FALSE(bad.GetBool("ok", true));
  EXPECT_EQ(bad.GetString("error"), "invalid");

  // The session resumed after each snapshot; cancel ends it.
  Call(service, JsonWriter()
                    .String("op", "cancel")
                    .String("job", job)
                    .Finish());
  EXPECT_EQ(WaitResult(service, job).GetString("status"), "cancelled");
}

TEST(ServeService, DrainFlushesQueueAndLeavesRestorableCheckpoints)
{
  const std::string dir = TestDir("drain");
  ServiceOptions options = BaseOptions(dir);
  options.num_threads = 1;
  options.tenant_quota = 0;
  SolverService service(options);

  const std::string running = MustSubmit(service, "t", BlockerSpec("run"));
  WaitRunning(service, running);
  // Let it execute at least one slice so the drain checkpoint has
  // real progress in it.
  for (int i = 0; i < 2000; ++i) {
    if (Status(service, running).GetNumber("steps_done", 0) >= 64) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string queued1 = MustSubmit(service, "t", BlockerSpec("q1"));
  const std::string queued2 = MustSubmit(service, "t", BlockerSpec("q2"));

  service.Drain();

  // Queued jobs were flushed, the running one checkpointed; all wake
  // their waiters with "interrupted".
  for (const std::string& job : {running, queued1, queued2}) {
    const JsonValue r = WaitResult(service, job);
    EXPECT_EQ(r.GetString("status"), "interrupted") << job;
  }

  // New submits are refused while draining.
  const JsonValue rejected = Call(service, SubmitLine("t", BlockerSpec("x")));
  EXPECT_FALSE(rejected.GetBool("ok", true));
  EXPECT_EQ(rejected.GetString("error"), "draining");

  // The interrupted session's checkpoint restores into a fresh
  // session at the recorded step — not corrupt, not empty.
  const std::string ckpt = dir + "/" + running + ".ckpt";
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  ModelConfig mc;
  mc.rows = 16;
  mc.cols = 16;
  mc.seed = 1;
  const auto model = MakeModel("heat", mc);
  SessionConfig sc;
  sc.name = "restore_check";
  SolverSession session(BuildEngine(MakeProgram(*model), ExecPolicy{}), sc);
  ASSERT_TRUE(session.TryRestoreFromFile(ckpt));
  EXPECT_GT(session.StepsDone(), 0u);
}

// ---------------------------------------------------------------------------
// Manifest / JobSpec sharing (satellite: reusable parse API)
// ---------------------------------------------------------------------------

TEST(ServeManifest, CollectingParserReportsEveryProblemWithLines)
{
  const std::string text =
      "model=heat\n"
      "rows=zero\n"     // line 2: bad number
      "bogus=1\n"       // line 3: unknown key
      "\n"
      "model=heat\n"
      "name=dup\n"
      "\n"
      "model=heat\n"
      "name=dup\n";     // duplicate name
  std::vector<JobSpecError> errors;
  const auto jobs = ParseManifestCollect(text, &errors);
  ASSERT_GE(errors.size(), 3u);

  bool saw_rows = false;
  bool saw_bogus = false;
  bool saw_dup = false;
  for (const JobSpecError& e : errors) {
    if (e.key == "rows" && e.line == 2) {
      saw_rows = true;
    }
    if (e.key == "bogus" && e.line == 3) {
      saw_bogus = true;
    }
    if (e.message.find("dup") != std::string::npos) {
      saw_dup = true;
    }
  }
  EXPECT_TRUE(saw_rows);
  EXPECT_TRUE(saw_bogus);
  EXPECT_TRUE(saw_dup);

  // The aggregate formatter names the lines so a client can fix the
  // manifest in one pass.
  const std::string joined = FormatJobSpecErrors(errors);
  EXPECT_NE(joined.find("line 2"), std::string::npos);
  EXPECT_NE(joined.find("line 3"), std::string::npos);
}

TEST(ServeManifest, FileOriginFlowsThroughToFormattedErrors)
{
  std::vector<JobSpecError> errors;
  ParseManifestCollect("model=heat\nrows=zero\n", &errors, nullptr,
                       "tenant/jobs.txt");
  ASSERT_GE(errors.size(), 1u);
  EXPECT_EQ(errors[0].file, "tenant/jobs.txt");
  EXPECT_NE(FormatJobSpecErrors(errors).find("tenant/jobs.txt:2: "),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario DSL jobs over serve
// ---------------------------------------------------------------------------

TEST(ServeScenario, InlineScenarioMatchesHandCodedTwinChecksum)
{
  SolverService service(BaseOptions(TestDir("scenario_twin")));
  const std::string src =
      "scenario heat_text; dt 0.1; param kappa = 1.0; var phi; "
      "d phi/dt = kappa * laplacian(phi); "
      "init phi = gaussian_spots(spots=3)";
  const std::string twin = MustSubmit(
      service, "t",
      SpecJson({{"name", "twin"}, {"model", "heat"}, {"rows", "12"},
                {"cols", "12"}, {"steps", "10"}, {"seed", "5"}}));
  const std::string text = MustSubmit(
      service, "t",
      SpecJson({{"name", "text"}, {"model_source", src}, {"rows", "12"},
                {"cols", "12"}, {"steps", "10"}, {"seed", "5"}}));
  const JsonValue a = WaitResult(service, twin);
  const JsonValue b = WaitResult(service, text);
  EXPECT_EQ(a.GetString("status"), "ok");
  EXPECT_EQ(b.GetString("status"), "ok");
  EXPECT_FALSE(a.GetString("checksum").empty());
  EXPECT_EQ(a.GetString("checksum"), b.GetString("checksum"))
      << "DSL text and C++ model diverged over the serve path";
  // Status reports a stable placeholder for inline scenario jobs.
  EXPECT_EQ(Status(service, text).GetString("model"), "inline");
}

TEST(ServeScenario, ScenarioFileJobsRunFromDisk)
{
  const std::string dir = TestDir("scenario_file");
  const std::string path = dir + "/osc.cenn";
  {
    std::ofstream out(path);
    out << "scenario osc\ngrid 10 10\ndt 0.1\nsteps 12\n"
           "var u\nd u/dt = -u\ninit u = constant(value=1.0)\n";
  }
  SolverService service(BaseOptions(dir));
  const std::string job = MustSubmit(
      service, "t", SpecJson({{"name", "osc"}, {"model_file", path}}));
  const JsonValue r = WaitResult(service, job);
  EXPECT_EQ(r.GetString("status"), "ok");
  // steps= was omitted: the file's own `steps 12` budget applies.
  EXPECT_EQ(r.GetString("steps_done"), "12");
  EXPECT_EQ(Status(service, job).GetString("model"), "file:" + path);
}

TEST(ServeScenario, SnapshotsReportTheGridTheSessionRuns)
{
  // Without rows= and cols= a scenario runs its own `grid`; with one
  // side given it runs that side. The snapshot reports the session's
  // rows and cols, beside that many values.
  ServiceOptions options = BaseOptions(TestDir("scenario_snapshot"));
  options.num_threads = 1;
  SolverService service(options);
  const std::string src =
      "scenario s; grid 10 10; dt 0.01; var u; d u/dt = -u; "
      "init u = constant(value=1.0)";
  const struct {
    const char* key;  // the one side given, or none
    std::size_t rows, cols;
  } cases[] = {{nullptr, 10, 10}, {"rows", 32, 10}, {"cols", 10, 7}};
  for (const auto& c : cases) {
    std::vector<std::pair<std::string, std::string>> spec = {
        {"model_source", src}, {"steps", "50000000"}};
    if (c.key != nullptr) {
      spec.emplace_back(c.key, std::to_string(c.key[0] == 'r' ? c.rows
                                                              : c.cols));
    }
    const std::string job = MustSubmit(service, "t", SpecJson(spec));
    WaitRunning(service, job);
    const JsonValue snap = SnapshotLayer0(service, job);
    ASSERT_TRUE(snap.GetBool("ok", false)) << snap.GetString("message");
    EXPECT_DOUBLE_EQ(snap.GetNumber("rows", 0), static_cast<double>(c.rows));
    EXPECT_DOUBLE_EQ(snap.GetNumber("cols", 0), static_cast<double>(c.cols));
    const JsonValue* values = snap.Find("values");
    ASSERT_NE(values, nullptr);
    EXPECT_EQ(values->array.size(), c.rows * c.cols);
    Call(service,
         JsonWriter().String("op", "cancel").String("job", job).Finish());
    EXPECT_EQ(WaitResult(service, job).GetString("status"), "cancelled");
  }
}

TEST(ServeScenario, UnnamedJobsAreNamedLikeBatch)
{
  // j<N>_ plus batch's stem: the model id, the scenario file's
  // basename, or "scenario" for inline text.
  const std::string dir = TestDir("scenario_names");
  const std::string path = dir + "/heat.cenn";
  {
    std::ofstream out(path);
    out << "scenario h\ngrid 8 8\ndt 0.1\nsteps 2\n"
           "var u\nd u/dt = -u\ninit u = constant(value=1.0)\n";
  }
  SolverService service(BaseOptions(dir));
  const auto submit_name = [&service](const std::string& spec) {
    const JsonValue r = Call(service, SubmitLine("t", spec));
    EXPECT_TRUE(r.GetBool("ok", false)) << r.GetString("message");
    return r.GetString("name");
  };
  EXPECT_EQ(submit_name(SpecJson(
                {{"model_source",
                  "scenario s; dt 0.1; steps 2; var u; d u/dt = -u; "
                  "init u = constant(value=1.0)"}})),
            "j1_scenario");
  EXPECT_EQ(submit_name(SpecJson({{"model_file", path}})), "j2_heat");
  EXPECT_EQ(submit_name(SpecJson({{"model", "heat"}, {"rows", "8"},
                                  {"cols", "8"}, {"steps", "2"}})),
            "j3_heat");
}

TEST(ServeScenario, BadScenariosAreRejectedAtSubmitNotAtRun)
{
  SolverService service(BaseOptions(TestDir("scenario_bad")));

  // Does not compile: the reject names the spec key and the position.
  JsonValue r = Call(
      service,
      SubmitLine("t", SpecJson({{"model_source", "scenario x; var u"},
                                {"steps", "5"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("model_source"), std::string::npos);
  EXPECT_NE(r.GetString("message").find("compile"), std::string::npos);

  // Naming both a model and a scenario is ambiguous — rejected.
  r = Call(service,
           SubmitLine("t", SpecJson({{"model", "heat"},
                                     {"model_source", "scenario x"},
                                     {"steps", "5"}})));
  EXPECT_FALSE(r.GetBool("ok", true));

  // Missing file: rejected with the I/O error, never a worker crash.
  r = Call(service,
           SubmitLine("t", SpecJson({{"model_file", "/nope/missing.cenn"},
                                     {"steps", "5"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_NE(r.GetString("message").find("model_file"), std::string::npos);

  // None of it was admitted.
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);
}

TEST(ServeScenario, CellLimitAppliesToTheGridTheJobRuns)
{
  // Without rows= and cols= a scenario runs at its own `grid`, so the
  // cell limit must judge that grid, not the spec's 64x64 defaults.
  ServiceOptions options = BaseOptions(TestDir("scenario_cells"));
  options.max_cells = 4096;
  SolverService service(options);
  const std::string big =
      "scenario big; grid 256 256; dt 0.1; steps 4; var u; d u/dt = -u; "
      "init u = constant(value=1.0)";

  JsonValue r = Call(service, SubmitLine("t", SpecJson({{"model_source",
                                                         big}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("256x256"), std::string::npos)
      << r.GetString("message");
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);

  // Explicit rows= and cols= override the scenario's grid, and fit.
  const std::string job = MustSubmit(
      service, "t",
      SpecJson({{"model_source", big}, {"rows", "32"}, {"cols", "32"}}));
  r = WaitResult(service, job);
  EXPECT_EQ(r.GetString("status"), "ok");
  EXPECT_EQ(r.GetString("steps_done"), "4");
}

TEST(ServeScenario, CellLimitJudgesTheOneSideAJobNames)
{
  // rows=32 on a `grid 10 10` scenario runs 32x10 (320 cells), so a
  // 300-cell limit rejects it, though the file's own grid would fit.
  ServiceOptions options = BaseOptions(TestDir("scenario_cells_one_side"));
  options.max_cells = 300;
  SolverService service(options);
  const std::string small =
      "scenario small; grid 10 10; dt 0.1; steps 4; var u; d u/dt = -u; "
      "init u = constant(value=1.0)";
  JsonValue r = Call(service, SubmitLine("t", SpecJson({{"model_source",
                                                         small},
                                                        {"rows", "32"}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("32x10"), std::string::npos)
      << r.GetString("message");
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);

  const std::string job =
      MustSubmit(service, "t", SpecJson({{"model_source", small}}));
  EXPECT_EQ(WaitResult(service, job).GetString("status"), "ok");
}

TEST(ServeFuzz, ShardsAboveTheHardwareThreadCountAreRejected)
{
  // One worker thread per shard: a submit may not ask for more shards
  // than the host has hardware threads. The grid has 8 rows, so even
  // an accepted job would start at most 8 threads.
  SolverService service(BaseOptions(TestDir("shard_limit")));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string exec = "shards=" + std::to_string(hw + 1);
  const JsonValue r = Call(
      service, SubmitLine("t", SpecJson({{"model", "heat"},
                                         {"rows", "8"},
                                         {"cols", "8"},
                                         {"steps", "4"},
                                         {"exec", exec}})));
  EXPECT_FALSE(r.GetBool("ok", true));
  EXPECT_EQ(r.GetString("error"), "invalid");
  EXPECT_NE(r.GetString("message").find("hardware threads"),
            std::string::npos)
      << r.GetString("message");
  EXPECT_EQ(service.Jobs().TotalCreated(), 0u);
}

// ---------------------------------------------------------------------------
// TCP loopback
// ---------------------------------------------------------------------------

/** Minimal blocking loopback client with a receive timeout. */
class LoopbackClient
{
  public:
    ~LoopbackClient()
    {
      if (fd_ >= 0) {
        ::close(fd_);
      }
    }

    bool Connect(int port)
    {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) {
        return false;
      }
      timeval tv{10, 0};
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0;
    }

    bool Send(const std::string& data)
    {
      std::size_t sent = 0;
      while (sent < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
          return false;
        }
        sent += static_cast<std::size_t>(n);
      }
      return true;
    }

    /** Reads one newline-terminated line ("" on close/timeout). */
    std::string ReadLine()
    {
      std::size_t newline;
      while ((newline = buffer_.find('\n')) == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          return "";
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
      }
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }

    /** True when the peer has closed (next read returns 0 bytes). */
    bool PeerClosed()
    {
      char byte;
      return ::recv(fd_, &byte, 1, 0) <= 0;
    }

    void Close()
    {
      if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
      }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

JsonValue
ParseLine(const std::string& line)
{
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(line, &v, &error)) << error << " in: " << line;
  return v;
}

TEST(ServeTcp, LoopbackLifecycleFramingAndShutdown)
{
  SolverService service(BaseOptions(TestDir("tcp")));
  TcpServerOptions tcp;
  tcp.max_line_bytes = 1024;
  TcpServer server(
      tcp,
      [&service](const std::string& line, std::string* response) {
        return service.HandleLine(line, response);
      },
      [&service] { service.OnConnection(); });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.Port(), 0);

  {
    LoopbackClient client;
    ASSERT_TRUE(client.Connect(server.Port()));

    // Fragmented request: the frame assembles across two sends.
    ASSERT_TRUE(client.Send(R"({"op":"pi)"));
    ASSERT_TRUE(client.Send("ng\"}\n"));
    JsonValue r = ParseLine(client.ReadLine());
    EXPECT_TRUE(r.GetBool("ok", false));
    EXPECT_EQ(r.GetString("op"), "ping");

    // Pipelined requests: two frames in one send, two responses.
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n"));
    EXPECT_EQ(ParseLine(client.ReadLine()).GetString("op"), "ping");
    EXPECT_EQ(ParseLine(client.ReadLine()).GetString("op"), "stats");

    // Jobs over the socket, three tenants.
    const char* tenants[] = {"alice", "bob", "carol"};
    std::vector<std::string> ids;
    for (int i = 0; i < 9; ++i) {
      const std::string line = SubmitLine(
          tenants[i % 3],
          SpecJson({{"model", "heat"},
                    {"rows", "8"},
                    {"cols", "8"},
                    {"steps", "20"},
                    {"seed", std::to_string(100 + i)}}));
      ASSERT_TRUE(client.Send(line + "\n"));
      const JsonValue submit = ParseLine(client.ReadLine());
      ASSERT_TRUE(submit.GetBool("ok", false));
      ids.push_back(submit.GetString("job"));
    }
    for (const std::string& id : ids) {
      ASSERT_TRUE(client.Send(JsonWriter()
                                  .String("op", "result")
                                  .String("job", id)
                                  .Bool("wait", true)
                                  .Int("timeout_ms", 30000)
                                  .Finish() +
                              "\n"));
      const JsonValue result = ParseLine(client.ReadLine());
      EXPECT_TRUE(result.GetBool("ok", false));
      EXPECT_EQ(result.GetString("status"), "ok");
      EXPECT_NE(result.GetString("checksum"), "0");
    }
  }

  // A truncated frame (no newline, then close) must not disturb the
  // server; the next connection is served normally.
  {
    LoopbackClient client;
    ASSERT_TRUE(client.Connect(server.Port()));
    ASSERT_TRUE(client.Send(R"({"op":"ping")"));
    client.Close();
  }
  {
    LoopbackClient client;
    ASSERT_TRUE(client.Connect(server.Port()));
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
    EXPECT_TRUE(ParseLine(client.ReadLine()).GetBool("ok", false));
  }

  // An oversized line draws one parse error and a close, with no
  // unbounded buffering server-side.
  {
    LoopbackClient client;
    ASSERT_TRUE(client.Connect(server.Port()));
    ASSERT_TRUE(client.Send(std::string(5000, 'a')));
    const JsonValue r = ParseLine(client.ReadLine());
    EXPECT_FALSE(r.GetBool("ok", true));
    EXPECT_EQ(r.GetString("error"), "parse");
    EXPECT_TRUE(client.PeerClosed());
  }

  // Wire shutdown: the response is flushed, then the host sees the
  // request and runs its drain.
  {
    LoopbackClient client;
    ASSERT_TRUE(client.Connect(server.Port()));
    ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}\n"));
    const JsonValue r = ParseLine(client.ReadLine());
    EXPECT_TRUE(r.GetBool("ok", false));
    EXPECT_TRUE(r.GetBool("draining", false));
  }
  EXPECT_TRUE(server.ShutdownRequested());
  EXPECT_GE(server.ConnectionsAccepted(), 5u);

  server.Stop();
  service.Drain();
}

}  // namespace
}  // namespace cenn
