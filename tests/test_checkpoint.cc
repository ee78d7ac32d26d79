/**
 * @file
 * Checkpoint tests: capture/restore fidelity on both precisions,
 * bit-exact continuation for the fixed-point engine, serialization
 * round trips, and torn or garbled input reported as errors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mapping/mapper.h"
#include "models/benchmark_model.h"
#include "program/checkpoint.h"

namespace cenn {
namespace {

NetworkSpec
RdSpec()
{
  ModelConfig mc;
  mc.rows = 16;
  mc.cols = 16;
  return Mapper::Map(MakeModel("reaction_diffusion", mc)->System());
}

/** Recomputes the trailing additive checksum after an edit. */
void
Reseal(std::vector<std::uint8_t>* bytes)
{
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 4 < bytes->size(); ++i) {
    sum += (*bytes)[i];
  }
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

TEST(CheckpointTest, FixedEngineContinuationIsBitExact)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<Fixed32> uninterrupted(spec);
  uninterrupted.Run(60);

  MultilayerCenn<Fixed32> first(spec);
  first.Run(25);
  const Checkpoint cp = CaptureCheckpoint(first);
  EXPECT_EQ(cp.steps, 25u);

  MultilayerCenn<Fixed32> resumed(spec);
  RestoreCheckpoint(cp, &resumed);
  resumed.Run(35);

  for (int l = 0; l < spec.NumLayers(); ++l) {
    const auto& a = uninterrupted.State(l);
    const auto& b = resumed.State(l);
    for (std::size_t i = 0; i < a.Size(); ++i) {
      ASSERT_EQ(a.Data()[i].raw(), b.Data()[i].raw()) << "layer " << l;
    }
  }
}

TEST(CheckpointTest, DoubleEngineContinuationMatches)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> uninterrupted(spec);
  uninterrupted.Run(40);

  MultilayerCenn<double> first(spec);
  first.Run(20);
  const Checkpoint cp = CaptureCheckpoint(first);
  MultilayerCenn<double> resumed(spec);
  RestoreCheckpoint(cp, &resumed);
  resumed.Run(20);

  const auto a = uninterrupted.StateDoubles(0);
  const auto b = resumed.StateDoubles(0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(CheckpointTest, SerializationRoundTrip)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  engine.Run(10);
  const Checkpoint cp = CaptureCheckpoint(engine);
  const auto bytes = SerializeCheckpoint(cp);
  Checkpoint back;
  std::string error;
  ASSERT_TRUE(DeserializeCheckpoint(bytes, &back, &error)) << error;
  EXPECT_EQ(back.network_name, cp.network_name);
  EXPECT_EQ(back.rows, cp.rows);
  EXPECT_EQ(back.cols, cp.cols);
  EXPECT_EQ(back.steps, cp.steps);
  ASSERT_EQ(back.layer_states.size(), cp.layer_states.size());
  for (std::size_t l = 0; l < cp.layer_states.size(); ++l) {
    ASSERT_EQ(back.layer_states[l], cp.layer_states[l]);
  }
}

TEST(CheckpointTest, CorruptionDetected)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  auto bytes = SerializeCheckpoint(CaptureCheckpoint(engine));
  bytes[bytes.size() / 3] ^= 0x5a;
  Checkpoint back;
  std::string error;
  EXPECT_FALSE(DeserializeCheckpoint(bytes, &back, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(CheckpointTest, TornInputIsAnErrorAtEveryLength)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  const auto bytes = SerializeCheckpoint(CaptureCheckpoint(engine));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    Checkpoint back;
    std::string error;
    EXPECT_FALSE(DeserializeCheckpoint(
        std::span<const std::uint8_t>(bytes).first(n), &back, &error))
        << "truncated to " << n << " bytes";
    EXPECT_FALSE(error.empty()) << n;
  }
}

TEST(CheckpointTest, ForeignOrLyingInputIsAnError)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  const auto good = SerializeCheckpoint(CaptureCheckpoint(engine));
  Checkpoint back;
  std::string error;

  // Not a checkpoint at all.
  const std::string text(64, 'x');
  EXPECT_FALSE(DeserializeCheckpoint(
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()),
      &back, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // A valid checksum over a layer length far past the end of the
  // file: bounded before anything is allocated.
  auto lying = good;
  const std::size_t name = spec.name.size();
  const std::size_t first_layer_len = 4 + 4 + name + 8 + 8 + 8 + 4;
  for (int i = 0; i < 8; ++i) {
    lying[first_layer_len + i] = 0xff;
  }
  Reseal(&lying);
  EXPECT_FALSE(DeserializeCheckpoint(lying, &back, &error));
  EXPECT_NE(error.find("overruns"), std::string::npos) << error;

  // Bytes after the last layer.
  auto padded = good;
  padded.insert(padded.end() - 4, 0);
  Reseal(&padded);
  EXPECT_FALSE(DeserializeCheckpoint(padded, &back, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointTest, GeometryMismatchDies)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  Checkpoint cp = CaptureCheckpoint(engine);
  cp.rows = 8;
  EXPECT_DEATH(RestoreCheckpoint(cp, &engine), "geometry mismatch");
}

TEST(CheckpointTest, FitsChecksGeometryAndLayerSizes)
{
  const NetworkSpec spec = RdSpec();
  MultilayerCenn<double> engine(spec);
  Checkpoint cp = CaptureCheckpoint(engine);
  std::string error;
  EXPECT_TRUE(CheckpointFits(cp, spec, &error)) << error;

  Checkpoint other_cols = cp;
  other_cols.cols = 17;
  EXPECT_FALSE(CheckpointFits(other_cols, spec, &error));
  EXPECT_NE(error.find("geometry mismatch"), std::string::npos) << error;

  Checkpoint short_layer = cp;
  short_layer.layer_states.back().pop_back();
  EXPECT_FALSE(CheckpointFits(short_layer, spec, &error));
  EXPECT_NE(error.find("values"), std::string::npos) << error;
}

TEST(CheckpointTest, CaptureFromDeSolverFacade)
{
  const NetworkSpec spec = RdSpec();
  SolverOptions options;
  options.precision = Precision::kFixed32;
  DeSolver solver(spec, options);
  solver.Run(5);
  const Checkpoint cp = CaptureCheckpoint(solver);
  EXPECT_EQ(cp.steps, 5u);
  EXPECT_EQ(cp.layer_states.size(),
            static_cast<std::size_t>(spec.NumLayers()));
}

}  // namespace
}  // namespace cenn
