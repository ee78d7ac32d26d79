/**
 * @file
 * Engine interface tests: backend identity and capability flags, the
 * engine factory's policy validation, the band-phase protocol on
 * MultilayerCenn, the shared CommonOptions parser, the Engine-generic
 * steady-state search, and SolverSession driving an arbitrary engine.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/solver.h"
#include "kernels/kernel_path.h"
#include "kernels/soa_engine.h"
#include "kernels/soa_simd.h"
#include "models/benchmark_model.h"
#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/solver_session.h"
#include "util/cli.h"
#include "util/common_options.h"

namespace cenn {
namespace {

SolverProgram
ModelProgram(const std::string& name, std::size_t rows, std::size_t cols)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  return MakeProgram(*MakeModel(name, mc));
}

/** A policy on `engine` at `precision` (empty = engine default). */
ExecPolicy
Policy(const std::string& engine, const std::string& precision = "")
{
  ExecPolicy policy;
  policy.engine = engine;
  policy.precision = precision;
  return policy;
}

/** CliFlags over a literal argv (argv[0] is the program name). */
CliFlags
Flags(std::vector<std::string> args)
{
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

// ---------------------------------------------------------------------------
// Engine factory

TEST(EngineFactoryTest, BuildsEveryBackendBehindTheSameInterface)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);

  EXPECT_STREQ(BuildEngine(program, Policy("functional"))->Kind(),
               "functional");
  EXPECT_STREQ(BuildEngine(program, Policy("soa"))->Kind(), "soa");
  EXPECT_STREQ(BuildEngine(program, Policy("arch"))->Kind(), "arch");
  EXPECT_STREQ(BuildEngine(program, Policy("soa", "float"))->Kind(), "soa");
}

TEST(EngineFactoryDeathTest, RejectsUnknownAndUnsupportedRequests)
{
  const SolverProgram program = ModelProgram("heat", 8, 8);
  EXPECT_DEATH(BuildEngine(program, Policy("gpu")), "unknown engine 'gpu'");
  EXPECT_DEATH(BuildEngine(program, Policy("functional", "half")),
               "unknown precision 'half'");
  // `double` is a precision, never an engine name.
  EXPECT_DEATH(BuildEngine(program, Policy("double")),
               "unknown engine 'double'");
  EXPECT_DEATH(BuildEngine(program, Policy("functional", "float")),
               "only available on the soa");
  EXPECT_DEATH(MakeLutRefitter(program, Policy("arch", "float")),
               "only available on the soa");
  ExecPolicy sram;
  sram.memory = "sram";
  EXPECT_DEATH(BuildEngine(program, sram), "unknown memory 'sram'");
}

TEST(EngineTest, BackendsReportBandSupport)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  EXPECT_TRUE(BuildEngine(program, Policy("functional"))->SupportsBands());
  EXPECT_TRUE(BuildEngine(program, Policy("soa"))->SupportsBands());
  EXPECT_FALSE(BuildEngine(program, Policy("arch"))->SupportsBands());
}

TEST(EngineTest, DefaultBindStatsPublishesStepsAndTime)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  const auto engine = BuildEngine(program, Policy("soa"));
  engine->Run(5);

  StatRegistry registry;
  engine->BindStats(&registry, "");
  EXPECT_EQ(registry.Value("sim.steps"), 5.0);
  EXPECT_DOUBLE_EQ(registry.Value("sim.time"),
                   5.0 * program.spec.dt);
}

// ---------------------------------------------------------------------------
// Kernel-path selection

TEST(KernelPathTest, ParsesEveryChoiceAndRejectsUnknown)
{
  KernelPath path = KernelPath::kAuto;
  EXPECT_TRUE(ParseKernelPath("auto", &path));
  EXPECT_EQ(path, KernelPath::kAuto);
  EXPECT_TRUE(ParseKernelPath("scalar", &path));
  EXPECT_EQ(path, KernelPath::kScalar);
  EXPECT_TRUE(ParseKernelPath("blocked", &path));
  EXPECT_EQ(path, KernelPath::kBlocked);
  EXPECT_TRUE(ParseKernelPath("simd", &path));
  EXPECT_EQ(path, KernelPath::kSimd);
  EXPECT_FALSE(ParseKernelPath("avx2", &path));
  EXPECT_FALSE(ParseKernelPath("", &path));
  EXPECT_FALSE(ParseKernelPath(nullptr, &path));
}

TEST(KernelPathTest, EnvOverrideSelectsThePathItNames)
{
  setenv("CENN_KERNEL_PATH", "blocked", 1);
  EXPECT_EQ(ResolveKernelPath(KernelPath::kAuto), KernelPath::kBlocked);
  EXPECT_EQ(ResolveKernelPath(KernelPath::kSimd), KernelPath::kBlocked);
  // "auto" and the empty string override nothing: the request stands.
  setenv("CENN_KERNEL_PATH", "auto", 1);
  EXPECT_EQ(ResolveKernelPath(KernelPath::kScalar), KernelPath::kScalar);
  setenv("CENN_KERNEL_PATH", "", 1);  // empty means unset
  EXPECT_EQ(ResolveKernelPath(KernelPath::kBlocked), KernelPath::kBlocked);
  unsetenv("CENN_KERNEL_PATH");
  EXPECT_EQ(ResolveKernelPath(KernelPath::kBlocked), KernelPath::kBlocked);
}

TEST(KernelPathTest, AutoResolvesToSimdAtEveryPrecision)
{
  // The default path is the fast one: kAuto means the vector kernels,
  // for Fixed32 as for double and float.
  unsetenv("CENN_KERNEL_PATH");
  EXPECT_EQ(ResolveKernelPath(KernelPath::kAuto), KernelPath::kSimd);
  const SolverProgram program = ModelProgram("heat", 8, 8);
  EXPECT_EQ(SoaEngine<Fixed32>(program.spec).Path(), KernelPath::kSimd);
  EXPECT_EQ(SoaEngine<double>(program.spec).Path(), KernelPath::kSimd);
  EXPECT_EQ(SoaEngine<float>(program.spec).Path(), KernelPath::kSimd);
}

TEST(KernelPathDeathTest, UnknownEnvOverrideIsFatalNotAFallback)
{
  // An unrecognized CENN_KERNEL_PATH used to fall back silently to the
  // requested path; a typo must refuse to run instead of timing or
  // debugging the wrong kernels.
  setenv("CENN_KERNEL_PATH", "turbo", 1);
  EXPECT_DEATH(ResolveKernelPath(KernelPath::kAuto),
               "CENN_KERNEL_PATH='turbo' is not a kernel path");
  EXPECT_DEATH(ResolveKernelPath(KernelPath::kAuto),
               "auto.scalar.blocked.simd");
  unsetenv("CENN_KERNEL_PATH");
}

TEST(KernelPathDeathTest, UnknownSimdIsaIsFatalNotAFallback)
{
  // The simd dispatcher probes once per process, so no simd engine may
  // be built before the forked death-test child reads the environment;
  // googletest runs *DeathTest suites before every other test.
  setenv("CENN_SIMD_ISA", "avx512", 1);
  EXPECT_DEATH(SimdIsaName(), "CENN_SIMD_ISA='avx512' is not available");
  unsetenv("CENN_SIMD_ISA");
}

// ---------------------------------------------------------------------------
// Engine-generic steady-state search

TEST(EngineTest, RunUntilSteadyWorksOnAnyBackend)
{
  const SolverProgram program = ModelProgram("poisson", 12, 12);
  for (const char* kind : {"functional", "soa"}) {
    const auto engine = BuildEngine(program, Policy(kind, "double"));
    const auto result = RunUntilSteady(*engine, 1e-7, 20000);
    EXPECT_TRUE(result.converged) << kind;
    EXPECT_EQ(engine->Steps(), result.steps_taken) << kind;
  }
}

// ---------------------------------------------------------------------------
// Band-phase protocol via the Engine interface

TEST(EngineTest, BandPhasesMatchPlainStepping)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> stepped(program.spec);
  MultilayerCenn<double> banded(program.spec);

  stepped.Step();
  const std::size_t rows = program.spec.rows;
  banded.RefreshOutputs(0, rows);
  banded.StepBands(0, rows);
  banded.Publish();

  EXPECT_EQ(banded.Steps(), stepped.Steps());
  const auto a = stepped.Snapshot(0);
  const auto b = banded.Snapshot(0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
}

// ---------------------------------------------------------------------------
// SolverSession over an arbitrary engine

TEST(EngineSessionTest, SoaSessionMatchesFunctionalSessionChecksum)
{
  const SolverProgram program = ModelProgram("reaction_diffusion", 16, 16);
  SessionConfig sc;
  sc.name = "soa";
  sc.target_steps = 40;
  sc.slice_steps = 8;
  sc.exec.shards = 3;

  SolverSession soa(BuildEngine(program, Policy("soa")), sc);
  soa.RunToTarget();

  sc.name = "ref";
  sc.exec.shards = 1;
  SolverSession ref(BuildEngine(program, Policy("functional")), sc);
  ref.RunToTarget();

  EXPECT_EQ(soa.State(), SessionState::kDone);
  EXPECT_EQ(soa.StateChecksum(), ref.StateChecksum());
}

TEST(EngineSessionTest, NonBandEngineClampsShardsWithWarning)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  SessionConfig sc;
  sc.name = "arch";
  sc.target_steps = 10;
  sc.slice_steps = 4;
  sc.exec.shards = 4;  // arch cannot band-step; session clamps to 1

  SolverSession session(BuildEngine(program, Policy("arch")), sc);
  EXPECT_EQ(session.RunToTarget(), 10u);
  EXPECT_EQ(session.StepsDone(), 10u);
}

// ---------------------------------------------------------------------------
// CommonOptions

TEST(CommonOptionsTest, ParsesAllGroupsWithDefaults)
{
  CliFlags flags = Flags({"--exec=soa:float:scalar", "--threads=3",
                          "--stats-out=s.json", "--trace-out=t.json",
                          "--trace-categories=step,conv",
                          "--trace-capacity=1024", "--progress"});
  const CommonOptions opts = ParseCommonOptions(flags);
  flags.Validate();

  EXPECT_EQ(opts.exec.engine, "soa");
  EXPECT_EQ(opts.exec.precision, "float");
  EXPECT_EQ(opts.exec.memory, "ddr3");  // default
  EXPECT_EQ(opts.exec.kernel_path, "scalar");
  EXPECT_EQ(opts.threads, 3);
  EXPECT_EQ(opts.stats_out, "s.json");
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.trace_categories, "step,conv");
  EXPECT_EQ(opts.trace_capacity, 1024u);
  EXPECT_TRUE(opts.progress);
  EXPECT_FALSE(opts.self_profile);
}

TEST(CommonOptionsDeathTest, RemovedStatsAliasIsRejected)
{
  // The --stats alias is gone; it must die in Validate like any other
  // unknown flag, not silently select a stats file.
  CliFlags flags = Flags({"--stats=legacy.txt"});
  const CommonOptions opts = ParseCommonOptions(flags, kStatsFlags);
  EXPECT_TRUE(opts.stats_out.empty());
  EXPECT_DEATH(flags.Validate(), "stats");
}

TEST(CommonOptionsTest, ParsesGuardGroup)
{
  CliFlags flags = Flags({"--guard", "--guard-max-abs=500",
                          "--guard-max-rms=12.5", "--guard-max-sat=9",
                          "--guard-check-every=4"});
  const CommonOptions opts = ParseCommonOptions(flags, kGuardFlags);
  flags.Validate();
  EXPECT_TRUE(opts.guard);
  EXPECT_EQ(opts.guard_max_abs, 500.0);
  EXPECT_EQ(opts.guard_max_rms, 12.5);
  EXPECT_EQ(opts.guard_max_sat, 9u);
  EXPECT_EQ(opts.guard_check_every, 4u);
}

TEST(CommonOptionsDeathTest, GuardFlagValidation)
{
  CliFlags bad_abs = Flags({"--guard-max-abs=-1"});
  EXPECT_DEATH(ParseCommonOptions(bad_abs, kGuardFlags), "guard-max-abs");
  CliFlags bad_cadence = Flags({"--guard-check-every=0"});
  EXPECT_DEATH(ParseCommonOptions(bad_cadence, kGuardFlags),
               "guard-check-every");
}

TEST(CommonOptionsDeathTest, FlagOutsideRequestedGroupsStaysUnknown)
{
  // A tool that opted out of trace flags must reject them loudly
  // (CliFlags::Validate) instead of silently swallowing the flag.
  CliFlags flags = Flags({"--trace-out=t.json"});
  ParseCommonOptions(flags, kStatsFlags);
  EXPECT_DEATH(flags.Validate(), "trace-out");
}

TEST(CommonOptionsTest, CallerDefaultsSurviveWhenFlagsAbsent)
{
  CliFlags flags = Flags({});
  CommonOptions defaults;
  defaults.threads = 2;
  defaults.exec.precision = "fixed";
  const CommonOptions opts =
      ParseCommonOptions(flags, kAllCommonFlags, defaults);
  flags.Validate();
  EXPECT_EQ(opts.threads, 2);
  EXPECT_EQ(opts.exec.precision, "fixed");
}

TEST(CommonOptionsDeathTest, RemovedExecAliasFlagsAreRejected)
{
  // --exec is the one execution flag: the old per-field flags die in
  // Validate like any other unknown flag instead of steering the run.
  for (const char* flag : {"--engine=soa", "--precision=double",
                           "--memory=hmc-int", "--kernel-path=simd"}) {
    CliFlags flags = Flags({flag});
    const CommonOptions opts = ParseCommonOptions(flags, kEngineFlags);
    EXPECT_EQ(opts.exec, ExecPolicy{}) << flag;
    const std::string name =
        std::string(flag).substr(0, std::string(flag).find('='));
    EXPECT_DEATH(flags.Validate(), "unknown flag " + name) << flag;
  }
}

TEST(CommonOptionsTest, CennExecEnvOutranksExecFlag)
{
  ::setenv("CENN_EXEC", "shards=2:pin=cores", /*overwrite=*/1);
  CliFlags flags = Flags({"--exec=soa:double:shards=8"});
  const CommonOptions opts = ParseCommonOptions(flags, kEngineFlags);
  ::unsetenv("CENN_EXEC");
  flags.Validate();
  // Env overrides only the fields it mentions; the flag's survive.
  EXPECT_EQ(opts.exec.engine, "soa");
  EXPECT_EQ(opts.exec.precision, "double");
  EXPECT_EQ(opts.exec.shards, 2);
  EXPECT_EQ(opts.exec.pin, "cores");
}

// ---------------------------------------------------------------------------
// ExecPolicy

TEST(ExecPolicyTest, ParsesBareTokensAndKeyValues)
{
  ExecPolicy policy;
  std::string error;
  ASSERT_TRUE(ParseExecPolicy("soa:simd:shards=8:pin=numa", &policy,
                              &error))
      << error;
  ExecPolicy expected;
  expected.engine = "soa";
  expected.kernel_path = "simd";
  expected.shards = 8;
  expected.pin = "numa";
  EXPECT_EQ(policy, expected);

  // A bare double/fixed sets the precision; the engine keeps the
  // value it had.
  ExecPolicy bare;
  bare.engine = "functional";
  ASSERT_TRUE(ParseExecPolicy("double", &bare, &error)) << error;
  EXPECT_EQ(bare.engine, "functional");
  EXPECT_EQ(bare.precision, "double");

  ExecPolicy keyed;
  ASSERT_TRUE(ParseExecPolicy(
      "engine=soa:precision=float:kernel=blocked:memory=hmc-ext", &keyed,
      &error))
      << error;
  EXPECT_EQ(keyed.engine, "soa");
  EXPECT_EQ(keyed.precision, "float");
  EXPECT_EQ(keyed.kernel_path, "blocked");
  EXPECT_EQ(keyed.memory, "hmc-ext");
}

TEST(ExecPolicyTest, RemovedKeysAreRejected)
{
  // kernel= is the one kernel key, and temporal blocking is gone.
  for (const char* text : {"kernel_path=simd", "block=4", "soa:block=1"}) {
    ExecPolicy policy;
    std::string error;
    EXPECT_FALSE(ParseExecPolicy(text, &policy, &error)) << text;
    EXPECT_NE(error.find("unknown exec key"), std::string::npos) << error;
    EXPECT_EQ(policy, ExecPolicy{}) << text;
  }
}

TEST(ExecPolicyTest, MergeOverridesOnlyMentionedFields)
{
  ExecPolicy policy;
  std::string error;
  ASSERT_TRUE(ParseExecPolicy("soa:double:simd:shards=4", &policy, &error));
  // Second parse into the same policy: merge semantics.
  ASSERT_TRUE(ParseExecPolicy("shards=2:pin=cores", &policy, &error));
  EXPECT_EQ(policy.engine, "soa");
  EXPECT_EQ(policy.precision, "double");
  EXPECT_EQ(policy.kernel_path, "simd");
  EXPECT_EQ(policy.shards, 2);
  EXPECT_EQ(policy.pin, "cores");
}

TEST(ExecPolicyTest, RejectsUnknownTokensDuplicatesAndBadCounts)
{
  ExecPolicy policy;
  std::string error;
  EXPECT_FALSE(ParseExecPolicy("warp9", &policy, &error));
  EXPECT_NE(error.find("unknown exec token"), std::string::npos);
  EXPECT_FALSE(ParseExecPolicy("soa:functional", &policy, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
  EXPECT_FALSE(ParseExecPolicy("shards=0", &policy, &error));
  EXPECT_FALSE(ParseExecPolicy("shards=x", &policy, &error));
  EXPECT_FALSE(ParseExecPolicy("pin=all", &policy, &error));
  EXPECT_FALSE(ParseExecPolicy("engine=gpu", &policy, &error));
  EXPECT_FALSE(ParseExecPolicy("", &policy, &error));
  EXPECT_FALSE(ParseExecPolicy("soa::simd", &policy, &error));
}

TEST(ExecPolicyTest, FormatRoundTripsAndOmitsDefaults)
{
  // Default fields collapse to just the engine name.
  ExecPolicy functional;
  functional.engine = "functional";
  EXPECT_EQ(FormatExecPolicy(functional), "functional");

  ExecPolicy full;
  full.engine = "soa";
  full.precision = "double";
  full.kernel_path = "simd";
  full.shards = 8;
  full.pin = "numa";
  const std::string text = FormatExecPolicy(full);
  EXPECT_EQ(text, "soa:double:simd:shards=8:pin=numa");

  ExecPolicy reparsed;
  std::string error;
  ASSERT_TRUE(ParseExecPolicy(text, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed, full);
}

TEST(ExecPolicyTest, DefaultsAreTheFastPath)
{
  // No exec= at all means the soa engine on the simd kernels, at the
  // engine default precision (fixed).
  const ExecPolicy defaults;
  EXPECT_EQ(defaults.engine, "soa");
  EXPECT_EQ(defaults.kernel_path, "auto");
  EXPECT_EQ(defaults.precision, "");
  EXPECT_EQ(FormatExecPolicy(defaults), "soa");
  // float is soa-only, so the default engine accepts it.
  ExecPolicy float_only;
  std::string error;
  ASSERT_TRUE(ParseExecPolicy("float", &float_only, &error)) << error;
  EXPECT_TRUE(ValidateExecPolicy(float_only, &error)) << error;

  unsetenv("CENN_KERNEL_PATH");
  const SolverProgram program = ModelProgram("heat", 8, 8);
  const auto engine = BuildEngine(program, defaults);
  EXPECT_STREQ(engine->Kind(), "soa");
  const auto* soa = dynamic_cast<const SoaEngine<Fixed32>*>(engine.get());
  ASSERT_NE(soa, nullptr);
  EXPECT_EQ(soa->Path(), KernelPath::kSimd);
}

TEST(ExecPolicyTest, ValidateEnforcesCrossFieldRules)
{
  std::string error;
  EXPECT_TRUE(ValidateExecPolicy(Policy("soa", "float"), &error)) << error;
  EXPECT_TRUE(ValidateExecPolicy(Policy("arch"), &error)) << error;

  EXPECT_FALSE(ValidateExecPolicy(Policy("functional", "float"), &error));
  EXPECT_NE(error.find("float"), std::string::npos);
  EXPECT_FALSE(ValidateExecPolicy(Policy("arch", "float"), &error));

  ExecPolicy no_shards;
  no_shards.shards = 0;
  EXPECT_FALSE(ValidateExecPolicy(no_shards, &error));
  EXPECT_NE(error.find("shards"), std::string::npos);
}

TEST(ExecPolicyTest, KernelChoicesStayInSyncWithKernelPathParser)
{
  // The policy's kernel choice list and kernels/kernel_path.h must
  // accept exactly the same spellings (the policy layer cannot
  // include the kernel header; this test is the sync contract).
  for (const char* name : {"auto", "scalar", "blocked", "simd"}) {
    ExecPolicy policy;
    std::string error;
    ASSERT_TRUE(ParseExecPolicy(std::string("kernel=") + name, &policy,
                                &error))
        << name << ": " << error;
    KernelPath path = KernelPath::kAuto;
    EXPECT_TRUE(ParseKernelPath(name, &path)) << name;
    EXPECT_NE(std::string(kKernelPathChoices).find(name),
              std::string::npos)
        << name;
  }
}

TEST(ExecPolicyDeathTest, ToEngineRequestRejectsInvalidPolicies)
{
  // Turning a policy into an engine is BuildEngine's job; a policy
  // that fails ValidateExecPolicy is fatal there.
  const SolverProgram program = ModelProgram("heat", 8, 8);
  ExecPolicy bad;
  bad.engine = "functional";
  bad.precision = "float";  // float is soa-only
  EXPECT_DEATH(BuildEngine(program, bad), "exec policy");
}

}  // namespace
}  // namespace cenn
