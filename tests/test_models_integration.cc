/**
 * @file
 * Integration tests: for every benchmark model, the mapped CeNN program
 * executed by the double-precision functional engine must agree with
 * the model's independent hand-coded reference integrator. This
 * validates the whole Section-2 mapping chain (layer assignment,
 * finite-difference templates, nonlinear factors, offsets, resets).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/network.h"
#include "mapping/mapper.h"
#include "models/benchmark_model.h"

namespace cenn {
namespace {

struct AgreementCase {
  const char* model;
  int steps;
  double tolerance;
};

/** Prints the case by value, so ctest names stay stable across builds
 *  (the default byte dump includes the `model` pointer). */
void
PrintTo(const AgreementCase& c, std::ostream* os)
{
  *os << c.model << " steps=" << c.steps << " tolerance=" << c.tolerance;
}

class ModelAgreementTest : public ::testing::TestWithParam<AgreementCase>
{
};

TEST_P(ModelAgreementTest, CennDoubleMatchesReference)
{
  const AgreementCase& tc = GetParam();
  ModelConfig config;
  config.rows = 32;
  config.cols = 32;
  config.seed = 7;
  const auto model = MakeModel(tc.model, config);

  MapperReport report;
  const NetworkSpec spec = Mapper::MapWithReport(model->System(), &report);
  MultilayerCenn<double> engine(spec);
  engine.Run(static_cast<std::uint64_t>(tc.steps));

  const auto reference = model->ReferenceRun(tc.steps);
  for (int var : model->ObservedVars()) {
    const int layer = report.var_to_layer[static_cast<std::size_t>(var)];
    const std::vector<double> got = engine.StateDoubles(layer);
    const std::vector<double>& want =
        reference[static_cast<std::size_t>(var)];
    ASSERT_EQ(got.size(), want.size());
    double max_err = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      max_err = std::max(max_err, std::abs(got[i] - want[i]));
    }
    EXPECT_LE(max_err, tc.tolerance)
        << tc.model << " variable " << var << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelAgreementTest,
    ::testing::Values(AgreementCase{"heat", 100, 1e-10},
                      AgreementCase{"fisher", 200, 1e-10},
                      AgreementCase{"navier_stokes", 150, 1e-9},
                      AgreementCase{"reaction_diffusion", 300, 1e-9},
                      AgreementCase{"gray_scott", 400, 1e-9},
                      AgreementCase{"hodgkin_huxley", 800, 2e-4},
                      AgreementCase{"izhikevich", 400, 1e-6},
                      AgreementCase{"wave", 300, 1e-9},
                      AgreementCase{"poisson", 400, 1e-9},
                      AgreementCase{"brusselator", 500, 1e-9}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return std::string(info.param.model);
    });

TEST(ModelFactoryTest, AllNamesConstruct)
{
  for (const auto& name : AllModelNames()) {
    ModelConfig config;
    config.rows = 8;
    config.cols = 8;
    const auto model = MakeModel(name, config);
    EXPECT_EQ(model->Name(), name);
    EXPECT_GT(model->DefaultSteps(), 0);
    model->System().Validate();
  }
}

TEST(ModelFactoryTest, UnknownNameDies)
{
  EXPECT_DEATH(MakeModel("no_such_model"), "unknown benchmark model");
}

TEST(ModelFactoryTest, PaperListHasSixEntries)
{
  EXPECT_EQ(PaperBenchmarkNames().size(), 6u);
}

}  // namespace
}  // namespace cenn
