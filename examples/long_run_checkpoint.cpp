/**
 * @file
 * Long-simulation workflow: run a Gray-Scott pattern in segments,
 * checkpointing to disk between segments and resuming bit-exactly —
 * plus a Heun-vs-Euler comparison on the same system to gauge how much
 * of the error budget is time discretization.
 *
 *   ./long_run_checkpoint [--rows=48] [--cols=48] [--segment=300]
 *                         [--segments=3] [--file=/tmp/cenn_checkpoint.bin]
 */

#include <cstdio>
#include <fstream>

#include "core/network.h"
#include "mapping/mapper.h"
#include "models/reaction_diffusion.h"
#include "program/checkpoint.h"
#include "util/cli.h"
#include "util/stats.h"

namespace {

bool
SaveBytes(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::vector<std::uint8_t>
LoadBytes(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

int
main(int argc, char** argv)
{
  using namespace cenn;
  CliFlags flags(argc, argv);
  ModelConfig config;
  config.rows = static_cast<std::size_t>(flags.GetInt("rows", 48));
  config.cols = static_cast<std::size_t>(flags.GetInt("cols", 48));
  const int segment = static_cast<int>(flags.GetInt("segment", 300));
  const int segments = static_cast<int>(flags.GetInt("segments", 3));
  const std::string file =
      flags.GetString("file", "/tmp/cenn_checkpoint.bin");
  flags.Validate();

  GrayScottModel model(config);
  const NetworkSpec spec = Mapper::Map(model.System());

  // Uninterrupted run for comparison.
  MultilayerCenn<Fixed32> whole(spec);
  whole.Run(static_cast<std::uint64_t>(segment) * segments);

  // Segmented run: save/load a checkpoint file between segments.
  std::printf("running %d segments of %d steps with on-disk "
              "checkpoints (%s)\n",
              segments, segment, file.c_str());
  MultilayerCenn<Fixed32> engine(spec);
  for (int s = 0; s < segments; ++s) {
    engine.Run(static_cast<std::uint64_t>(segment));
    SaveBytes(file, SerializeCheckpoint(CaptureCheckpoint(engine)));
    // Simulate a process restart: fresh engine, restore from disk.
    Checkpoint cp;
    std::string error;
    if (!DeserializeCheckpoint(LoadBytes(file), &cp, &error)) {
      CENN_FATAL(error);
    }
    MultilayerCenn<Fixed32> resumed(spec);
    RestoreCheckpoint(cp, &resumed);
    engine = std::move(resumed);
    std::printf("  segment %d complete (checkpoint at step %llu)\n", s + 1,
                static_cast<unsigned long long>(cp.steps));
  }

  // Bit-exactness check.
  bool identical = true;
  for (int l = 0; l < spec.NumLayers() && identical; ++l) {
    const auto& a = whole.State(l);
    const auto& b = engine.State(l);
    for (std::size_t i = 0; i < a.Size(); ++i) {
      if (a.Data()[i].raw() != b.Data()[i].raw()) {
        identical = false;
        break;
      }
    }
  }
  std::printf("segmented run %s the uninterrupted run\n",
              identical ? "bit-exactly matches" : "DIVERGED from");

  // Heun vs Euler on the double engine: time-discretization error.
  NetworkSpec heun_spec = spec;
  heun_spec.integrator = Integrator::kHeun;
  MultilayerCenn<double> euler(spec);
  MultilayerCenn<double> heun(heun_spec);
  euler.Run(static_cast<std::uint64_t>(segment));
  heun.Run(static_cast<std::uint64_t>(segment));
  const ErrorSummary diff =
      CompareFields(euler.StateDoubles(0), heun.StateDoubles(0));
  std::printf("\nEuler-vs-Heun after %d steps: %s\n", segment,
              FormatError(diff).c_str());
  std::printf("(this bounds the explicit-Euler time-discretization error "
              "the hardware inherits)\n");
  return identical ? 0 : 1;
}
