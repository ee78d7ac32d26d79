/**
 * @file
 * Scenario DSL tests: the differential model-equivalence harness
 * (every zoo twin must be indistinguishable from its hand-coded C++
 * model, down to the bit), parser robustness fuzzing, golden
 * round-trip / spec-dump pins, and the two text-only scenarios that
 * have no C++ twin at all.
 *
 * Goldens live in tests/golden/lang/. To regenerate after an
 * intentional spec change:
 *   CENN_UPDATE_GOLDENS=1 ./build/tests/test_lang \
 *       --gtest_filter='GoldenTest.*'
 * then review the diff like any other source change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lang/compiler.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/spec_dump.h"
#include "models/benchmark_model.h"
#include "runtime/engine_factory.h"
#include "runtime/solver_session.h"

namespace cenn {
namespace {

/** Zoo models that have a hand-coded C++ twin registered in MakeModel. */
const char* const kTwins[] = {
    "heat",       "fisher",     "wave",       "poisson",
    "reaction_diffusion",       "gray_scott", "brusselator",
};

/** Every zoo file, twins plus the two text-only scenarios. */
const char* const kZoo[] = {
    "heat",       "fisher",     "wave",        "poisson",
    "reaction_diffusion",       "gray_scott",  "brusselator",
    "gray_scott_mitosis",       "maxcut_grid",
};

std::string
ZooPath(const std::string& name)
{
  return std::string(CENN_ZOO_DIR) + "/" + name + ".cenn";
}

std::string
GoldenPath(const std::string& name)
{
  return std::string(CENN_GOLDEN_DIR) + "/" + name + ".spec";
}

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

lang::CompiledScenario
CompileZoo(const std::string& name, std::size_t rows = 0,
           std::size_t cols = 0, std::uint64_t seed = 42)
{
  lang::ScenarioConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.seed = seed;
  const lang::CompileResult result = lang::CompileFile(ZooPath(name), cfg);
  EXPECT_TRUE(result.ok()) << lang::FormatDiags(ZooPath(name), result.diags);
  return result.scenario;
}

SolverProgram
TwinProgram(const std::string& name, std::size_t rows, std::size_t cols,
            std::uint64_t seed)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  mc.seed = seed;
  return MakeProgram(*MakeModel(name, mc));
}

/** Steps `program` for `steps` and fingerprints the final state. */
std::uint64_t
RunChecksum(const SolverProgram& program, const std::string& engine,
            const std::string& precision, int shards, std::uint64_t steps)
{
  SessionConfig cfg;
  cfg.name = "equiv";
  cfg.exec.engine = engine;
  cfg.exec.precision = precision;
  cfg.exec.shards = shards;
  cfg.target_steps = steps;
  cfg.slice_steps = 4;  // several slices even on tiny runs
  SolverSession session(BuildEngine(program, cfg.exec), cfg);
  session.RunToTarget();
  return session.StateChecksum();
}

// ---------------------------------------------------------------------------
// Differential model equivalence: text twin vs hand-coded C++

TEST(EquivalenceTest, MappedSpecsAreBitIdenticalToHandCodedTwins)
{
  for (const char* name : kTwins) {
    const lang::CompiledScenario scenario = CompileZoo(name, 16, 16);
    const SolverProgram from_text = lang::MakeScenarioProgram(scenario);
    const SolverProgram from_cpp = TwinProgram(name, 16, 16, 42);
    EXPECT_EQ(lang::DumpSpec(from_text.spec, from_text.lut_config, 0),
              lang::DumpSpec(from_cpp.spec, from_cpp.lut_config, 0))
        << "zoo/" << name << ".cenn maps differently from the C++ model";
  }
}

TEST(EquivalenceTest, ChecksumsMatchAcrossEnginesPrecisionsAndShards)
{
  // The full differential matrix: every twin, every engine family the
  // sharded session supports, both numeric types, serial and banded.
  for (const char* name : kTwins) {
    const SolverProgram from_text =
        lang::MakeScenarioProgram(CompileZoo(name, 16, 16));
    const SolverProgram from_cpp = TwinProgram(name, 16, 16, 42);
    for (const char* engine : {"functional", "soa"}) {
      for (const char* precision : {"double", "fixed"}) {
        for (int shards : {1, 3}) {
          const std::uint64_t text_sum =
              RunChecksum(from_text, engine, precision, shards, 8);
          const std::uint64_t cpp_sum =
              RunChecksum(from_cpp, engine, precision, shards, 8);
          EXPECT_EQ(text_sum, cpp_sum)
              << name << " diverges on " << engine << ":" << precision
              << ":shards=" << shards;
        }
      }
    }
  }
}

TEST(EquivalenceTest, SeedChangesFieldsButTwinsTrackEachOther)
{
  const SolverProgram text_a =
      lang::MakeScenarioProgram(CompileZoo("heat", 16, 16, 7));
  const SolverProgram cpp_a = TwinProgram("heat", 16, 16, 7);
  EXPECT_EQ(lang::DumpSpec(text_a.spec, text_a.lut_config, 0),
            lang::DumpSpec(cpp_a.spec, cpp_a.lut_config, 0));
  const SolverProgram cpp_b = TwinProgram("heat", 16, 16, 8);
  EXPECT_NE(lang::DumpSpec(cpp_a.spec, cpp_a.lut_config, 0),
            lang::DumpSpec(cpp_b.spec, cpp_b.lut_config, 0))
      << "different seeds should produce different initial fields";
}

// ---------------------------------------------------------------------------
// Text-only scenarios (no C++ twin)

TEST(ScenarioOnlyTest, MitosisAndMaxcutCompileAndRunEverywhere)
{
  for (const char* name : {"gray_scott_mitosis", "maxcut_grid"}) {
    const lang::CompiledScenario scenario = CompileZoo(name, 16, 16);
    EXPECT_GT(scenario.default_steps, 0u) << name;
    const SolverProgram program = lang::MakeScenarioProgram(scenario);
    for (const char* engine : {"functional", "soa"}) {
      for (const char* precision : {"double", "fixed"}) {
        const std::uint64_t serial =
            RunChecksum(program, engine, precision, 1, 8);
        const std::uint64_t banded =
            RunChecksum(program, engine, precision, 3, 8);
        EXPECT_EQ(serial, banded)
            << name << " not shard-deterministic on " << engine << ":"
            << precision;
      }
    }
  }
}

TEST(ScenarioOnlyTest, MaxcutConvergesToAnAntiAlignedCut)
{
  // Energy descent on the antiferromagnetic grid: after the scenario's
  // own default step budget the sign pattern should cut the large
  // majority of grid edges (a perfect checkerboard cuts all of them;
  // random signs cut half).
  const lang::CompiledScenario scenario = CompileZoo("maxcut_grid");
  const SolverProgram program = lang::MakeScenarioProgram(scenario);
  SessionConfig cfg;
  cfg.name = "maxcut";
  cfg.exec.precision = "double";
  cfg.target_steps = scenario.default_steps;
  SolverSession session(BuildEngine(program, cfg.exec), cfg);
  session.RunToTarget();

  const std::size_t rows = scenario.system.rows;
  const std::size_t cols = scenario.system.cols;
  const std::vector<double> x = session.StateDoubles(0);
  ASSERT_EQ(x.size(), rows * cols);
  std::size_t edges = 0;
  std::size_t cut = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        ++edges;
        cut += (x[r * cols + c] > 0) != (x[r * cols + c + 1] > 0) ? 1 : 0;
      }
      if (r + 1 < rows) {
        ++edges;
        cut += (x[r * cols + c] > 0) != (x[(r + 1) * cols + c] > 0) ? 1 : 0;
      }
    }
  }
  const double frac =
      static_cast<double>(cut) / static_cast<double>(edges);
  EXPECT_GT(frac, 0.85) << "cut fraction " << frac
                        << " — spins failed to anti-align";
  // Spins actually committed to the wells (not hovering near zero).
  double max_abs = 0.0;
  for (const double v : x) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  EXPECT_GT(max_abs, 0.5);
}

// ---------------------------------------------------------------------------
// Golden round-trip: parse -> pretty-print is a fixed point

TEST(GoldenTest, ZooFilesRoundTripThroughThePrinter)
{
  for (const char* name : kZoo) {
    const std::string source = ReadFileOrEmpty(ZooPath(name));
    ASSERT_FALSE(source.empty()) << ZooPath(name);
    const lang::ParseResult first = lang::Parse(source);
    ASSERT_TRUE(first.ok()) << lang::FormatDiags(name, first.diags);
    const std::string printed = lang::Print(first.def);
    const lang::ParseResult second = lang::Parse(printed);
    ASSERT_TRUE(second.ok())
        << "pretty-printed form of " << name
        << " does not re-parse: " << lang::FormatDiags(name, second.diags);
    EXPECT_EQ(lang::Print(second.def), printed)
        << name << ": print -> parse -> print is not a fixed point";

    // The canonical form must also compile to the identical spec.
    lang::ScenarioConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    const lang::CompileResult a = lang::CompileSource(source, cfg);
    const lang::CompileResult b = lang::CompileSource(printed, cfg);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_EQ(lang::DumpScenario(a.scenario), lang::DumpScenario(b.scenario))
        << name << ": canonical form compiles differently";
  }
}

TEST(GoldenTest, SpecDumpsMatchCheckedInGoldens)
{
  const bool update = std::getenv("CENN_UPDATE_GOLDENS") != nullptr;
  for (const char* name : kZoo) {
    const lang::CompiledScenario scenario = CompileZoo(name);
    const std::string dump = lang::DumpScenario(scenario);
    const std::string path = GoldenPath(name);
    if (update) {
      std::ofstream out(path);
      out << dump;
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      continue;
    }
    const std::string golden = ReadFileOrEmpty(path);
    ASSERT_FALSE(golden.empty())
        << path << " missing — regenerate with CENN_UPDATE_GOLDENS=1";
    EXPECT_EQ(dump, golden)
        << "zoo/" << name << ".cenn no longer maps to its golden spec; "
        << "if intentional, regenerate with CENN_UPDATE_GOLDENS=1";
  }
}

// ---------------------------------------------------------------------------
// Parser robustness: hostile input never crashes, always positions

/** xorshift64* — deterministic fuzz stream, no libc rand. */
class FuzzRng
{
  public:
    explicit FuzzRng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t Next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 2685821657736338717ULL;
    }

    std::uint32_t Below(std::uint32_t n)
    {
        return static_cast<std::uint32_t>(Next() % n);
    }

  private:
    std::uint64_t state_;
};

/** Compiles hostile text; the only requirement is a sane outcome. */
void
ExpectTotal(const std::string& source)
{
  lang::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const lang::CompileResult result = lang::CompileSource(source, cfg);
  if (result.ok()) {
    return;  // fuzzers do occasionally emit valid scenarios
  }
  ASSERT_FALSE(result.diags.empty());
  for (const lang::Diag& d : result.diags) {
    EXPECT_GE(d.pos.line, 1);
    EXPECT_GE(d.pos.col, 1);
    EXPECT_FALSE(d.message.empty());
    // Formatting must never throw or produce an empty string either.
    EXPECT_NE(lang::FormatDiag("fuzz", d).find("fuzz:"), std::string::npos);
  }
}

TEST(FuzzTest, ByteSoupNeverCrashesTheFrontend)
{
  FuzzRng rng(0x5eed5eed5eedULL);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t\n=+-*/^(),._#;\"\\{}[]<>!@$%&";
  for (int i = 0; i < 300; ++i) {
    std::string source;
    const std::uint32_t len = rng.Below(512);
    source.reserve(len);
    for (std::uint32_t j = 0; j < len; ++j) {
      if (rng.Below(16) == 0) {
        source.push_back(static_cast<char>(rng.Below(256)));  // raw bytes
      } else {
        source.push_back(alphabet[rng.Below(
            static_cast<std::uint32_t>(alphabet.size()))]);
      }
    }
    SCOPED_TRACE("byte-soup case " + std::to_string(i));
    ExpectTotal(source);
  }
}

TEST(FuzzTest, MutatedZooSourcesNeverCrashTheFrontend)
{
  // Grammar-aware fuzzing: start from real scenarios and damage them —
  // truncations, duplicated lines, token deletions, character flips.
  std::vector<std::string> corpus;
  for (const char* name : kZoo) {
    corpus.push_back(ReadFileOrEmpty(ZooPath(name)));
    ASSERT_FALSE(corpus.back().empty()) << name;
  }
  FuzzRng rng(0xfeedbeefULL);
  const std::string junk = "=+-*/^(),;#\n ";
  for (int i = 0; i < 300; ++i) {
    std::string source = corpus[rng.Below(
        static_cast<std::uint32_t>(corpus.size()))];
    const int mutations = 1 + static_cast<int>(rng.Below(8));
    for (int m = 0; m < mutations && !source.empty(); ++m) {
      const std::uint32_t at = rng.Below(
          static_cast<std::uint32_t>(source.size()));
      switch (rng.Below(5)) {
        case 0:  // flip a character
          source[at] = static_cast<char>(rng.Below(256));
          break;
        case 1:  // truncate
          source.resize(at);
          break;
        case 2:  // delete a span
          source.erase(at, rng.Below(16));
          break;
        case 3:  // insert junk
          source.insert(at, 1, junk[rng.Below(
              static_cast<std::uint32_t>(junk.size()))]);
          break;
        default: {  // duplicate a line somewhere else
          const std::size_t begin = source.rfind('\n', at);
          const std::size_t start = begin == std::string::npos ? 0 : begin + 1;
          const std::size_t end = source.find('\n', at);
          const std::string line =
              source.substr(start, end == std::string::npos
                                       ? std::string::npos
                                       : end - start);
          source.insert(rng.Below(static_cast<std::uint32_t>(
                            source.size() + 1)), line + "\n");
          break;
        }
      }
    }
    SCOPED_TRACE("mutation case " + std::to_string(i));
    ExpectTotal(source);
  }
}

TEST(FuzzTest, PathologicalShapesAreRejectedNotFatal)
{
  // Deep nesting, huge exponents, absurd grids, runaway statement
  // counts: each must come back as a diagnostic, not a crash or OOM.
  std::string deep = "scenario d\ndt 0.1\nvar u\nd u/dt = ";
  for (int i = 0; i < 200; ++i) {
    deep += "(";
  }
  deep += "u";
  for (int i = 0; i < 200; ++i) {
    deep += ")";
  }
  ExpectTotal(deep + "\n");

  ExpectTotal("scenario e\ndt 0.1\nvar u\nd u/dt = u^99999999\n");
  ExpectTotal("scenario g\ngrid 99999999999 2\ndt 0.1\nvar u\n"
              "d u/dt = u\n");
  std::string many = "scenario m\ndt 0.1\nvar u\nd u/dt = u\n";
  for (int i = 0; i < 10000; ++i) {
    many += "param p" + std::to_string(i) + " = 1\n";
  }
  ExpectTotal(many);
  ExpectTotal("");  // empty input
  ExpectTotal(std::string(1, '\0'));
  ExpectTotal("d u/dt = 1e999999\n");  // overflowing literal
}

TEST(FuzzDeathTest, CompileFileOrDieDiesWithPositionedDiagnostics)
{
  EXPECT_DEATH(
      lang::CompileFileOrDie("/nonexistent/nowhere.cenn", {}),
      "nonexistent");

  const std::string dir = ::testing::TempDir();
  const std::string bad = dir + "/bad_scenario.cenn";
  {
    std::ofstream out(bad);
    out << "scenario broken\ndt 0.1\nvar u\nd u/dt = u +\n";
  }
  // The fatal message must carry file:line:col positioning.
  EXPECT_DEATH(lang::CompileFileOrDie(bad, {}), "bad_scenario.cenn:4");
}

// ---------------------------------------------------------------------------
// Compiler semantics worth pinning directly

TEST(CompilerTest, ConstantSubexpressionsFoldLikeCpp)
{
  // (feed + kill) must fold to ONE coefficient before distribution, so
  // the center weight sees a single fused constant exactly like the
  // hand-written -(feed + kill) expression in C++.
  const char* source =
      "scenario fold\ndt 1.0\nparam feed = 0.030\nparam kill = 0.062\n"
      "var v\nd v/dt = -(feed + kill) * v\n";
  lang::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const lang::CompileResult result = lang::CompileSource(source, cfg);
  ASSERT_TRUE(result.ok()) << lang::FormatDiags("fold", result.diags);
  const EquationSystem& system = result.scenario.system;
  ASSERT_EQ(system.equations.size(), 1u);
  ASSERT_EQ(system.equations[0].terms.size(), 1u);
  EXPECT_EQ(system.equations[0].terms[0].coeff, -(0.030 + 0.062));
}

TEST(CompilerTest, DiagnosticsCarryUsefulPositions)
{
  const struct {
    const char* source;
    const char* fragment;
  } cases[] = {
      {"scenario x\ndt 0.1\nvar u\nd u/dt = u * w\n", "w"},
      {"scenario x\ndt 0.1\nvar u\nd u/dt = u / u\n", "constant"},
      {"scenario x\nvar u\nd u/dt = u\n", "dt"},
      {"scenario x\ndt 0.1\nvar u\n", "equation"},
      {"scenario x\ndt 0.1\nvar u\nd u/dt = u\n"
       "init u = no_such_generator()\n",
       "generator"},
      {"scenario x\ndt 0.1\nvar u\nd u/dt = laplacian(u) * dx(u)\n",
       "spatial"},
  };
  for (const auto& c : cases) {
    const lang::CompileResult result = lang::CompileSource(c.source, {});
    ASSERT_FALSE(result.ok()) << c.source;
    bool found = false;
    for (const lang::Diag& d : result.diags) {
      EXPECT_GE(d.pos.line, 1);
      EXPECT_GE(d.pos.col, 1);
      if (d.message.find(c.fragment) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no diagnostic mentioning '" << c.fragment
                       << "' for:\n"
                       << c.source << "got: "
                       << lang::FormatDiags("t", result.diags);
  }
}

TEST(CompilerTest, SemicolonsMakeOneLineInlineScenariosWork)
{
  // The manifest / serve path ships scenarios as single-line values.
  const char* inline_src =
      "scenario inline_heat; grid 12 12; dt 0.1; steps 5; "
      "param kappa = 1.0; var phi; d phi/dt = kappa * laplacian(phi); "
      "init phi = gaussian_spots(spots=3)";
  const lang::CompileResult result = lang::CompileSource(inline_src, {});
  ASSERT_TRUE(result.ok()) << lang::FormatDiags("inline", result.diags);
  EXPECT_EQ(result.scenario.name, "inline_heat");
  EXPECT_EQ(result.scenario.system.rows, 12u);
  EXPECT_EQ(result.scenario.default_steps, 5u);
}

TEST(CompilerTest, AGivenSideOverridesOnlyItsSideOfTheGrid)
{
  // rows= alone (a manifest, serve spec or --rows flag) keeps the
  // file's cols; a side the config leaves 0 comes from `grid`, else
  // the default.
  const char* src =
      "scenario s; grid 10 10; dt 0.1; steps 1; var u; d u/dt = -u; "
      "init u = constant(value=1.0)";
  const char* gridless =
      "scenario s; dt 0.1; steps 1; var u; d u/dt = -u; "
      "init u = constant(value=1.0)";
  const struct {
    const char* source;
    std::size_t rows, cols, want_rows, want_cols;
  } cases[] = {{src, 32, 0, 32, 10},     {src, 0, 7, 10, 7},
               {src, 0, 0, 10, 10},      {src, 5, 6, 5, 6},
               {gridless, 32, 0, 32, lang::kDefaultGridSide}};
  for (const auto& c : cases) {
    lang::ScenarioConfig cfg;
    cfg.rows = c.rows;
    cfg.cols = c.cols;
    const lang::CompileResult result = lang::CompileSource(c.source, cfg);
    ASSERT_TRUE(result.ok()) << lang::FormatDiags("s", result.diags);
    EXPECT_EQ(result.scenario.system.rows, c.want_rows)
        << c.rows << "x" << c.cols;
    EXPECT_EQ(result.scenario.system.cols, c.want_cols)
        << c.rows << "x" << c.cols;
  }
}

}  // namespace
}  // namespace cenn
