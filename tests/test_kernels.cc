/**
 * @file
 * SoA kernel engine tests: the bit-exactness contract of SoaEngine
 * against its one oracle, the functional engine (every bundled model,
 * double, fixed and float precision, serial and band-sharded),
 * checkpoint round-trips through the SoA layout, a seeded
 * differential fuzz sweep of the SoA kernels against the functional
 * engine across models, grid shapes (odd and tiny widths included),
 * boundary kinds, precisions, evaluators and shard counts — for
 * Fixed32 also LUT geometries, saturating states, mid-run refits and
 * the saturation and LUT counters — and the Q16.16 lane ops of every
 * vector backend checked against Fixed32.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/solver.h"
#include "health/health_guard.h"
#include "kernels/soa_engine.h"
#include "kernels/soa_simd.h"
#include "kernels/vec.h"
#include "lut/lut_bank.h"
#include "lut/lut_evaluator.h"
#include "lut/lut_store.h"
#include "lut/lut_traffic.h"
#include "mapping/mapper.h"
#include "models/benchmark_model.h"
#include "program/checkpoint.h"
#include "runtime/worker_team.h"
#include "simd_lane_ops.h"

namespace cenn {
namespace {

/**
 * The kernel sweeps run again under CENN_SIMD_ISA=<isa> as the ctests
 * test_kernels_isa_<isa>. Where this CPU cannot run the wide x86 ISA
 * named there, the binary exits with this code before any test, and
 * the ctest's SKIP_RETURN_CODE reports it skipped, never passed. Other
 * names reach the dispatcher and its fatal error.
 */
constexpr int kIsaSkipExitCode = 77;

class ForcedIsaProbe : public testing::Environment
{
  public:
    void
    SetUp() override
    {
        const char* isa = std::getenv("CENN_SIMD_ISA");
        if (isa == nullptr || (std::strcmp(isa, "avx2") != 0 &&
                               std::strcmp(isa, "avx512") != 0)) {
          return;
        }
        if (!SimdIsaSupported(isa)) {
          std::printf("CENN_SIMD_ISA=%s: this CPU cannot run it; skipped\n",
                      isa);
          std::fflush(stdout);
          std::exit(kIsaSkipExitCode);
        }
    }
};

[[maybe_unused]] testing::Environment* const kForcedIsaProbe =
    testing::AddGlobalTestEnvironment(new ForcedIsaProbe);

SolverProgram
ModelProgram(const std::string& name, std::size_t rows, std::size_t cols)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  return MakeProgram(*MakeModel(name, mc));
}

SolverOptions
LutFixedOptions(const SolverProgram& program)
{
  SolverOptions options;
  options.precision = Precision::kFixed32;
  auto bank =
      LutStore::Global().Acquire(program.spec, program.lut_config);
  options.fixed_evaluator = std::make_shared<LutEvaluatorFixed>(bank);
  return options;
}

/** Double (ideal math) or Fixed32 (program LUTs) engine options. */
SolverOptions
PrecisionOptions(const SolverProgram& program, const std::string& precision)
{
  if (precision == "fixed") {
    return LutFixedOptions(program);
  }
  SolverOptions options;
  options.precision = Precision::kDouble;
  return options;
}

/** The functional oracle at "double", "fixed" or "float". */
std::unique_ptr<Engine>
MakeOracle(const SolverProgram& program, const std::string& precision)
{
  if (precision == "float") {
    return std::make_unique<MultilayerCenn<float>>(program.spec);
  }
  return MakeFunctionalEngine(program.spec,
                              PrecisionOptions(program, precision));
}

/** The SoA engine at "double", "fixed" or "float". */
std::unique_ptr<Engine>
MakeSoa(const SolverProgram& program, const std::string& precision)
{
  if (precision == "float") {
    return MakeSoaEngineFloat(program.spec);
  }
  return MakeSoaEngine(program.spec, PrecisionOptions(program, precision));
}

/** Steps `engine` `steps` times on a `shards`-band team, one dispatch. */
void
RunTeam(Engine* engine, std::uint64_t steps, int shards)
{
  TeamOptions options;
  options.shards = shards;
  ShardTeam(engine, options).Run(steps);
}

/** Asserts every layer of two engines is bit-identical (as f64). */
void
ExpectSameState(const Engine& a, const Engine& b, const std::string& context)
{
  ASSERT_EQ(a.Spec().NumLayers(), b.Spec().NumLayers()) << context;
  for (int l = 0; l < a.Spec().NumLayers(); ++l) {
    const std::vector<double> va = a.Snapshot(l);
    const std::vector<double> vb = b.Snapshot(l);
    ASSERT_EQ(va.size(), vb.size()) << context;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i])
          << context << ": layer " << l << " cell " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-exactness sweep: every model x {double, fixed+LUT, float} x shards

TEST(SoaEngineSweepTest, BitExactVsFunctionalAllModelsBothPrecisions)
{
  constexpr std::uint64_t kSteps = 8;
  for (const std::string& name : AllModelNames()) {
    const SolverProgram program = ModelProgram(name, 16, 16);
    if (program.spec.integrator != Integrator::kEuler) {
      continue;  // the SoA engine is explicit-Euler only
    }
    for (const char* precision : {"double", "fixed", "float"}) {
      const auto reference = MakeOracle(program, precision);
      const auto soa = MakeSoa(program, precision);
      reference->Run(kSteps);
      soa->Run(kSteps);
      ExpectSameState(*reference, *soa,
                      name + "/" + precision + "/serial");
    }
  }
}

TEST(SoaEngineSweepTest, ShardedBitExactVsFunctionalAllModels)
{
  constexpr std::uint64_t kSteps = 8;
  for (const std::string& name : AllModelNames()) {
    const SolverProgram program = ModelProgram(name, 16, 16);
    if (program.spec.integrator != Integrator::kEuler) {
      continue;
    }
    for (const char* precision : {"fixed", "float"}) {
      const auto reference = MakeOracle(program, precision);
      reference->Run(kSteps);
      for (int shards : {1, 3, 7}) {
        const auto soa = MakeSoa(program, precision);
        RunTeam(soa.get(), kSteps, shards);
        ExpectSameState(*reference, *soa,
                        name + "/" + precision +
                            "/shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(SoaEngineTest, ReportsKindAndBands)
{
  const SolverProgram program = ModelProgram("heat", 8, 8);
  const auto soa = MakeSoaEngine(program.spec);
  EXPECT_STREQ(soa->Kind(), "soa");
  EXPECT_TRUE(soa->SupportsBands());
}

TEST(SoaEngineDeathTest, HeunSpecIsFatal)
{
  SolverProgram program = ModelProgram("heat", 8, 8);
  program.spec.integrator = Integrator::kHeun;
  EXPECT_DEATH(MakeSoaEngine(program.spec), "explicit-Euler");
}

// ---------------------------------------------------------------------------
// Checkpoints through the SoA layout

TEST(SoaEngineTest, CheckpointRoundTripIsBitExact)
{
  const SolverProgram program = ModelProgram("gray_scott", 16, 16);
  const SolverOptions options = LutFixedOptions(program);

  const auto uninterrupted = MakeSoaEngine(program.spec, options);
  uninterrupted->Run(30);

  const auto first = MakeSoaEngine(program.spec, options);
  first->Run(12);
  const Checkpoint cp = CaptureCheckpoint(*first);
  EXPECT_EQ(cp.steps, 12u);

  const auto resumed = MakeSoaEngine(program.spec, options);
  RestoreCheckpoint(cp, resumed.get());
  EXPECT_EQ(resumed->Steps(), 12u);
  resumed->Run(18);
  ExpectSameState(*uninterrupted, *resumed, "soa-resume");
}

TEST(SoaEngineTest, CheckpointCrossesEngineKinds)
{
  // A checkpoint captured on the SoA engine restores into the
  // functional engine (and vice versa) with bit-identical evolution.
  const SolverProgram program = ModelProgram("izhikevich", 16, 16);
  const SolverOptions options = LutFixedOptions(program);

  const auto soa = MakeSoaEngine(program.spec, options);
  soa->Run(10);
  const Checkpoint cp = CaptureCheckpoint(*soa);

  const auto functional = MakeFunctionalEngine(program.spec, options);
  RestoreCheckpoint(cp, functional.get());
  soa->Run(10);
  functional->Run(10);
  ExpectSameState(*functional, *soa, "cross-engine-resume");
}

// ---------------------------------------------------------------------------
// Differential fuzz sweep: the SoA kernels against the functional oracle

/** Maps double bits onto a monotone signed line (ULP arithmetic). */
std::int64_t
OrderedBits64(double x)
{
  std::int64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits < 0
             ? static_cast<std::int64_t>(0x8000000000000000ull) - bits
             : bits;
}

/** float flavor, widened so the subtraction below cannot overflow. */
std::int64_t
OrderedBits32(float x)
{
  std::int32_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  const auto wide = static_cast<std::int64_t>(bits);
  return bits < 0 ? INT64_C(0x80000000) - wide : wide;
}

/** ULP distance in the engine's native precision; huge on NaN. */
std::int64_t
UlpDiff(double a, double b, bool as_float)
{
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b)
               ? 0
               : std::numeric_limits<std::int64_t>::max();
  }
  const std::int64_t oa = as_float
                              ? OrderedBits32(static_cast<float>(a))
                              : OrderedBits64(a);
  const std::int64_t ob = as_float
                              ? OrderedBits32(static_cast<float>(b))
                              : OrderedBits64(b);
  return oa < ob ? ob - oa : oa - ob;
}

/** Asserts every cell of two engines is within max_ulp (native ULPs). */
void
ExpectUlpClose(const Engine& a, const Engine& b, bool as_float,
               std::int64_t max_ulp, const std::string& context)
{
  ASSERT_EQ(a.Spec().NumLayers(), b.Spec().NumLayers()) << context;
  for (int l = 0; l < a.Spec().NumLayers(); ++l) {
    const std::vector<double> va = a.Snapshot(l);
    const std::vector<double> vb = b.Snapshot(l);
    ASSERT_EQ(va.size(), vb.size()) << context;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_LE(UlpDiff(va[i], vb[i], as_float), max_ulp)
          << context << ": layer " << l << " cell " << i << " ("
          << va[i] << " vs " << vb[i] << ")";
    }
  }
}

SolverProgram
FuzzProgram(const std::string& name, std::size_t rows, std::size_t cols,
            std::uint64_t ic_seed)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  mc.seed = ic_seed;
  return MakeProgram(*MakeModel(name, mc));
}

/** What one Fixed32 run counted besides its state. */
struct FixedCounts {
  std::uint64_t sat_events = 0;
  std::uint64_t lut_accesses = 0;
  std::uint64_t lut_exact_hits = 0;
};

/**
 * Steps `engine` with a HealthGuard and a LUT sink attached: serially
 * when `shards` is 0, else on a team of that many shards. A non-null
 * `refit` bank is rebound after half the steps, as an adaptive LUT
 * refit does at a slice boundary.
 */
FixedCounts
RunCounting(Engine* engine, std::uint64_t steps, int shards,
            const std::shared_ptr<const LutBank>& refit)
{
  HealthGuard guard;
  LutTrafficSink sink;
  engine->AttachHealthGuard(&guard);
  engine->AttachLutTraffic(&sink);
  const auto run = [&](std::uint64_t n) {
    if (shards == 0) {
      // Stepping outside a team: this thread counts, as cenn_run does.
      ScopedSatCounter sat(&guard);
      ScopedLutTally tally(&sink);
      engine->Run(n);
    } else {
      RunTeam(engine, n, shards);  // the team counts on its own threads
    }
  };
  run(steps / 2);
  if (refit != nullptr) {
    EXPECT_TRUE(engine->RebindLutBank(refit));
  }
  run(steps - steps / 2);
  engine->AttachHealthGuard(nullptr);
  engine->AttachLutTraffic(nullptr);
  return {guard.SatEvents(), sink.Accesses(), sink.ExactHits()};
}

/**
 * A one-layer Fixed32 program over an exp table far from zero
 * ([20, 28]): the zero-filled lanes past a row's end index its first
 * entry at d = -20 against saturated coefficients, so their cubic
 * clamps, and the real cells, at 20..27.4, clamp too.
 */
SolverProgram
FarTableProgram(std::size_t rows, std::size_t cols)
{
  const NonlinearFnPtr far_exp =
      MakeFunction("far_exp", [](double x) { return std::exp(x); });
  EquationSystem sys;
  sys.name = "far_exp";
  sys.rows = rows;
  sys.cols = cols;
  sys.dt = 0.01;
  EquationDef u;
  u.var_name = "u";
  u.terms.push_back(Term::Linear(0.1, SpatialOp::kLaplacian, 0));
  u.terms.push_back(
      Term::Nonlinear(1e-3, 0, far_exp, SpatialOp::kIdentity, 0));
  for (std::size_t i = 0; i < rows * cols; ++i) {
    u.initial.push_back(20.0 + 0.37 * static_cast<double>(i % 21));
  }
  sys.equations.push_back(std::move(u));
  SolverProgram program;
  program.spec = Mapper::Map(sys);
  program.lut_config.default_spec.min_p = 20.0;
  program.lut_config.default_spec.max_p = 28.0;
  return program;
}

/** Applies `edit` to the default and every per-function LUT spec. */
template <typename Edit>
void
EditLutSpecs(LutConfig* config, Edit edit)
{
  edit(&config->default_spec);
  for (auto& [name, spec] : config->per_function) {
    edit(&spec);
  }
}

/**
 * The SoA exactness contract, fuzzed: >= 100 seeded random configs
 * (model x grid shape x boundary kind x precision x evaluator x shard
 * count x step count), each stepped serially on the functional oracle
 * (MultilayerCenn<T>) and on a team of SoA engines. The SoA kernels
 * must match within 4 native ULPs for float/double (docs/kernels.md)
 * and bit-for-bit for Fixed32, whose configs also draw a LUT geometry
 * (paper grid, 2^-1/2^-2 spacing, or min_p off the sample grid),
 * saturating initial states and a mid-run refit, and must match the
 * oracle's HealthGuard saturation events and LUT accesses and exact
 * hits too. Three more Fixed32 configs run the far table at widths
 * that leave a tail at every lane count, so zero-filled tail lanes
 * clamp and must not count. Every assertion carries the master seed
 * and the config index, so a failure reproduces by pinning kMasterSeed
 * and stepping to that config.
 */
TEST(SimdFuzzTest, DifferentialSweepSimdVsFunctional)
{
  constexpr std::uint64_t kMasterSeed = 0xCE11FA57u;
  constexpr int kConfigs = 120;
  constexpr std::int64_t kMaxUlp = 4;
  const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33};
  const int kShards[] = {1, 2, 3, 5};
  const char* kPrecisions[] = {"double", "float", "fixed"};

  std::vector<std::string> models;
  for (const std::string& name : AllModelNames()) {
    if (FuzzProgram(name, 8, 8, 1).spec.integrator == Integrator::kEuler) {
      models.push_back(name);
    }
  }
  ASSERT_FALSE(models.empty());

  FixedCounts fixed_totals;
  int fixed_lane_luts = 0;
  std::mt19937_64 rng(kMasterSeed);
  for (int cfg = 0; cfg < kConfigs; ++cfg) {
    const std::string model = models[rng() % models.size()];
    // poisson's initial-condition sprinkler needs a 5x5 interior.
    const std::size_t min_size = model == "poisson" ? 5 : 1;
    const std::size_t rows =
        std::max(min_size, kSizes[rng() % std::size(kSizes)]);
    const std::size_t cols =
        std::max(min_size, kSizes[rng() % std::size(kSizes)]);
    const auto bkind = static_cast<BoundaryKind>(rng() % 3);
    // Round-robin precision: every third config per flavor, instead of
    // leaving coverage of the rarest flavor to chance.
    const std::string precision = kPrecisions[cfg % 3];
    const int shards = kShards[rng() % std::size(kShards)];
    const bool use_lut = (rng() & 1) != 0 && precision != "float";
    const std::uint64_t steps = 2 + rng() % 5;
    const std::uint64_t ic_seed = rng();

    SolverProgram program = FuzzProgram(model, rows, cols, ic_seed);
    program.spec.boundary.kind = bkind;
    if (bkind == BoundaryKind::kDirichlet) {
      program.spec.boundary.value = 0.25;
    }

    // Fixed32-only knobs, drawn from their own stream so the configs
    // of the other precisions stay as they were.
    std::mt19937_64 knobs(ic_seed);
    const bool fixed = precision == "fixed";
    const int lut_geometry = fixed && use_lut ? knobs() % 4 : 0;
    const bool saturate = fixed && knobs() % 3 == 0;
    const bool refit = fixed && use_lut && knobs() % 3 == 0;
    if (lut_geometry == 1 || lut_geometry == 2) {
      EditLutSpecs(&program.lut_config, [lut_geometry](LutSpec* spec) {
        spec->frac_index_bits = lut_geometry;
      });
    } else if (lut_geometry == 3) {
      EditLutSpecs(&program.lut_config, [](LutSpec* spec) {
        spec->min_p += 0.5 * spec->Spacing();  // off the sample grid
      });
    }
    if (saturate) {
      // States far outside every LUT range: sums, products and the
      // clamped-index cubic all leave Q16.16.
      for (LayerSpec& layer : program.spec.layers) {
        for (double& x : layer.initial_state) {
          x *= 3.0e4;
        }
      }
    }

    std::ostringstream desc;
    desc << "master-seed=0x" << std::hex << kMasterSeed << std::dec
         << " config#" << cfg << ": " << model << " " << rows << "x"
         << cols << " boundary=" << static_cast<int>(bkind)
         << " precision=" << precision << " shards=" << shards
         << (use_lut ? " lut" : " direct") << " steps=" << steps
         << " lut_geometry=" << lut_geometry
         << (saturate ? " saturate" : "") << (refit ? " refit" : "");
    SCOPED_TRACE(desc.str());

    if (precision == "float") {
      // No float LUT evaluator exists; direct math only.
      MultilayerCenn<float> oracle(program.spec);
      const auto simd = MakeSoaEngineFloat(program.spec);
      oracle.Run(steps);
      RunTeam(simd.get(), steps, shards);
      ExpectUlpClose(oracle, *simd, /*as_float=*/true, kMaxUlp, desc.str());
      continue;
    }

    // Each engine gets its own evaluator, so a refit of one cannot
    // reach the other's tables.
    const auto make_options = [&] {
      SolverOptions options;
      if (precision == "double") {
        options.precision = Precision::kDouble;
        if (use_lut) {
          auto bank = LutStore::Global().Acquire(program.spec,
                                                 program.lut_config);
          options.double_evaluator =
              std::make_shared<LutEvaluatorDouble>(bank);
        }
      } else {
        options.precision = Precision::kFixed32;
        if (use_lut) {
          options = LutFixedOptions(program);
        }
      }
      return options;
    };
    const auto oracle = MakeFunctionalEngine(program.spec, make_options());
    const auto simd = MakeSoaEngine(program.spec, make_options());
    if (!fixed) {
      oracle->Run(steps);
      RunTeam(simd.get(), steps, shards);
      ExpectUlpClose(*oracle, *simd, /*as_float=*/false, kMaxUlp,
                     desc.str());
      continue;
    }

    // Fixed32: integer lanes do not round, so the SoA kernels are
    // bit-exact with no ULP slack, and count every clamp and LUT read
    // as the oracle does.
    std::shared_ptr<const LutBank> refit_bank;
    if (refit) {
      LutConfig widened = program.lut_config;
      EditLutSpecs(&widened, [](LutSpec* spec) {
        spec->min_p -= 4.0;
        spec->max_p += 4.0;
      });
      refit_bank = LutStore::Global().Acquire(program.spec, widened);
    }
    const FixedCounts want = RunCounting(oracle.get(), steps, 0, refit_bank);
    const FixedCounts got = RunCounting(simd.get(), steps, shards, refit_bank);
    ExpectSameState(*oracle, *simd, desc.str());
    EXPECT_EQ(got.sat_events, want.sat_events);
    EXPECT_EQ(got.lut_accesses, want.lut_accesses);
    EXPECT_EQ(got.lut_exact_hits, want.lut_exact_hits);
    fixed_totals.sat_events += want.sat_events;
    fixed_totals.lut_accesses += want.lut_accesses;
    fixed_totals.lut_exact_hits += want.lut_exact_hits;
    if (use_lut && lut_geometry != 3) {
      ++fixed_lane_luts;
    }
  }
  // The Fixed32 knobs must reach what they are for: clamps, LUT reads
  // with exact hits, and configs on the packed Q16.16 gathers.
  EXPECT_GT(fixed_totals.sat_events, 0u);
  EXPECT_GT(fixed_totals.lut_accesses, 0u);
  EXPECT_GT(fixed_totals.lut_exact_hits, 0u);
  EXPECT_GT(fixed_lane_luts, 0);

  // Tail-lane clamps: Fixed32 configs over the far table, whose
  // zero-filled tail lanes clamp, at widths that leave a tail at every
  // lane count (cols % 16 in {1, 9, 15}, hence % 8 and % 4 too). Only
  // the real cells' clamps may count. Their knobs come from the same
  // stream after the configs above, which stay as they were.
  int cfg = kConfigs;
  for (const std::size_t cols : {17, 25, 31}) {
    const std::size_t rows = std::max<std::size_t>(
        2, kSizes[rng() % std::size(kSizes)]);
    const int shards = kShards[rng() % std::size(kShards)];
    const std::uint64_t steps = 2 + rng() % 5;
    const SolverProgram program = FarTableProgram(rows, cols);
    std::ostringstream desc;
    desc << "master-seed=0x" << std::hex << kMasterSeed << std::dec
         << " config#" << cfg++ << ": far_exp " << rows << "x" << cols
         << " precision=fixed shards=" << shards << " lut steps=" << steps;
    SCOPED_TRACE(desc.str());
    const auto oracle =
        MakeFunctionalEngine(program.spec, LutFixedOptions(program));
    const auto simd = MakeSoaEngine(program.spec, LutFixedOptions(program));
    const FixedCounts want = RunCounting(oracle.get(), steps, 0, nullptr);
    const FixedCounts got = RunCounting(simd.get(), steps, shards, nullptr);
    ExpectSameState(*oracle, *simd, desc.str());
    EXPECT_GT(want.sat_events, 0u);
    EXPECT_EQ(got.sat_events, want.sat_events);
    EXPECT_EQ(got.lut_accesses, want.lut_accesses);
    EXPECT_EQ(got.lut_exact_hits, want.lut_exact_hits);
  }
}

TEST(SimdFuzzTest, Fixed32ClampsCountOnlyRealCells)
{
  // The far table's tail lanes clamp (FarTableProgram); only real
  // cells may count, at every row width the lane masks cut differently.
  for (const std::size_t cols : {1, 3, 5, 9, 13, 17}) {
    const SolverProgram program = FarTableProgram(4, cols);
    const auto oracle =
        MakeFunctionalEngine(program.spec, LutFixedOptions(program));
    const auto simd = MakeSoaEngine(program.spec, LutFixedOptions(program));
    const FixedCounts want = RunCounting(oracle.get(), 4, 0, nullptr);
    const FixedCounts got = RunCounting(simd.get(), 4, 0, nullptr);
    const std::string context = "cols=" + std::to_string(cols);
    ExpectSameState(*oracle, *simd, context);
    EXPECT_GT(want.sat_events, 0u) << context;
    EXPECT_EQ(got.sat_events, want.sat_events) << context;
    EXPECT_EQ(got.lut_accesses, want.lut_accesses) << context;
    EXPECT_EQ(got.lut_exact_hits, want.lut_exact_hits) << context;
  }
}

TEST(SimdFuzzTest, Fixed32HasVectorKernels)
{
  EXPECT_NE(SimdStepFor<Fixed32>(), nullptr);
  EXPECT_GE(SimdLanesInt32(), 4);
}

/**
 * The Q16.16 lane ops of one vec.h backend against Fixed32, lane by
 * lane: the result word and whether the lane clamped (the scalar op
 * counting one saturation) must agree for AddSat, SubSat and MulQ16,
 * over edge words (the int32 limits, +-1, +-0.5 and +-1 in Q16.16,
 * and the neighbours of the multiply's +-2^47 clamp boundary) and
 * random words.
 */
void
ExpectLaneOpsMatchFixed32(const lane_ops::Backend& backend)
{
  SCOPED_TRACE(backend.isa);
  std::vector<std::int32_t> words = {
      INT32_MIN, INT32_MIN + 1, -65536, -32768, -32767, -1, 0, 1,
      32767, 32768, 65536, INT32_MAX - 1, INT32_MAX,
      // |a*b| near 2^47: 2^24 * 2^23 and neighbours.
      1 << 24, (1 << 24) - 1, (1 << 24) + 1, -(1 << 24), 1 << 23,
      (1 << 23) + 1, -(1 << 23), -(1 << 23) - 1, 181 << 16, 46341 << 8};
  std::mt19937_64 rng(0x51A7u);
  for (int i = 0; i < 400; ++i) {
    words.push_back(static_cast<std::int32_t>(rng()));
    words.push_back(static_cast<std::int32_t>(rng() >> 40) -
                    (1 << 23));  // small words: products that fit
  }
  constexpr int kLanes = lane_ops::kMaxLanes;
  std::uint64_t events = 0;
  std::uint64_t* previous = Fixed32::ExchangeSaturationCounter(&events);
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::int32_t a[kLanes] = {};
    std::int32_t b[kLanes] = {};
    for (int l = 0; l < backend.lanes; ++l) {
      a[l] = words[i];
      b[l] = words[(i * 7 + static_cast<std::size_t>(l) * 13) % words.size()];
    }
    unsigned sat[3] = {0, 0, 0};
    std::int32_t out[3][kLanes];
    backend.apply(a, b, out[0], sat);
    for (int l = 0; l < backend.lanes; ++l) {
      const Fixed32 x = Fixed32::FromRaw(a[l]);
      const Fixed32 y = Fixed32::FromRaw(b[l]);
      for (int op = 0; op < 3; ++op) {
        events = 0;
        const Fixed32 want = op == 0 ? x + y : op == 1 ? x - y : x * y;
        ASSERT_EQ(out[op][l], want.raw())
            << "op " << op << " a=" << a[l] << " b=" << b[l];
        ASSERT_EQ((sat[op] >> l) & 1u, events)
            << "op " << op << " a=" << a[l] << " b=" << b[l];
      }
    }
  }
  Fixed32::ExchangeSaturationCounter(previous);
}

TEST(SimdFuzzTest, LaneOpsMatchFixed32)
{
  ExpectLaneOpsMatchFixed32(lane_ops::BackendOf<vec::generic::VecI>("generic"));
#if defined(__SSE2__)
  ExpectLaneOpsMatchFixed32(lane_ops::BackendOf<vec::sse2::VecI>("sse2"));
#endif
#if defined(__x86_64__) || defined(_M_X64)
  // The wide ISAs' checks run only where the CPU runs them.
  if (SimdIsaSupported("avx2")) {
    ExpectLaneOpsMatchFixed32(lane_ops::Avx2Backend());
  }
  if (SimdIsaSupported("avx512")) {
    ExpectLaneOpsMatchFixed32(lane_ops::Avx512Backend());
  }
#endif
}

// ---------------------------------------------------------------------------
// LUT traffic accounting: the SoA kernels count what the oracle counts

/** Runs one engine with LUT accounting attached; returns the tally. */
LutTally
CountLutTraffic(Engine* engine, std::uint64_t steps, int shards)
{
  LutTrafficSink sink;
  engine->AttachLutTraffic(&sink);
  if (shards > 1) {
    // Band workers install their own scoped tallies.
    RunTeam(engine, steps, shards);
  } else {
    ScopedLutTally tally(engine->AttachedLutTraffic());
    engine->Run(steps);
  }
  LutTally total;
  total.accesses = sink.Accesses();
  total.exact_hits = sink.ExactHits();
  return total;
}

TEST(SoaEngineTest, LutTrafficCountsMatchFunctional)
{
  // Double + LUT exercises the gathered-LUT kernels, Fixed32 the
  // Q16.16 gathers; sharding exercises the worker-side scoped tallies.
  // The SoA kernels must see exactly the functional oracle's LUT
  // evaluation stream — the accounting is defined by the model, not
  // by the kernel organization.
  const SolverProgram program = ModelProgram("reaction_diffusion", 16, 16);
  constexpr std::uint64_t kSteps = 10;
  auto bank =
      LutStore::Global().Acquire(program.spec, program.lut_config);
  const auto lut_options = [&](const std::string& precision) {
    if (precision == "fixed") {
      return LutFixedOptions(program);
    }
    SolverOptions options;
    options.precision = Precision::kDouble;
    options.double_evaluator = std::make_shared<LutEvaluatorDouble>(bank);
    return options;
  };

  for (const std::string precision : {"double", "fixed"}) {
    const auto oracle =
        MakeFunctionalEngine(program.spec, lut_options(precision));
    const LutTally want = CountLutTraffic(oracle.get(), kSteps, 1);
    ASSERT_GT(want.accesses, 0u) << precision;
    for (const int shards : {1, 2}) {
      const auto soa = MakeSoaEngine(program.spec, lut_options(precision));
      const LutTally got = CountLutTraffic(soa.get(), kSteps, shards);
      EXPECT_EQ(got.accesses, want.accesses) << precision << " x" << shards;
      EXPECT_EQ(got.exact_hits, want.exact_hits)
          << precision << " x" << shards;
    }
  }
}

TEST(SoaEngineTest, DetachedLutTrafficCostsNothingAndCountsNothing)
{
  const SolverProgram program = ModelProgram("reaction_diffusion", 16, 16);
  SolverOptions options = LutFixedOptions(program);
  const auto engine = MakeSoaEngine(program.spec, options);
  // No sink attached: AttachedLutTraffic is null and the scoped tally
  // is a no-op, so running leaves the thread-local slot untouched.
  {
    ScopedLutTally tally(engine->AttachedLutTraffic());
    engine->Run(4);
  }
  EXPECT_EQ(lut_traffic::t_tally, nullptr);
}

// ---------------------------------------------------------------------------
// Fused persistent-team stepping (runtime/worker_team.h)

/**
 * The fused-path exactness contract: a persistent ShardTeam —
 * dispatched twice to exercise worker reuse — and a team run in one
 * dispatch both reproduce serial SoA stepping bit-for-bit, for every
 * bundled Euler model, both precisions and ragged shard counts.
 */
TEST(FusedTeamSweepTest, PersistentTeamBitExactAllModelsPathsShards)
{
  constexpr std::uint64_t kSteps = 8;
  for (const std::string& name : AllModelNames()) {
    const SolverProgram program = ModelProgram(name, 16, 16);
    if (program.spec.integrator != Integrator::kEuler) {
      continue;  // band stepping is explicit-Euler only
    }
    for (const char* precision : {"double", "fixed"}) {
      const auto serial = MakeSoa(program, precision);
      serial->Run(kSteps);
      for (int shards : {1, 3, 7}) {
        const std::string context = name + "/" + precision +
                                    "/shards=" + std::to_string(shards);

        // Persistent team, two dispatches (worker reuse).
        const auto fused = MakeSoa(program, precision);
        {
          TeamOptions to;
          to.shards = shards;
          ShardTeam team(fused.get(), to);
          team.Run(kSteps / 2);
          team.Run(kSteps - kSteps / 2);
          EXPECT_EQ(team.Dispatches(), 2u) << context;
        }
        ExpectSameState(*serial, *fused, context + "/persistent");

        // One team, one dispatch.
        const auto oneshot = MakeSoa(program, precision);
        RunTeam(oneshot.get(), kSteps, shards);
        ExpectSameState(*serial, *oneshot, context + "/oneshot");
      }
    }
  }
}

}  // namespace
}  // namespace cenn
