#ifndef CENN_PROGRAM_CHECKPOINT_H_
#define CENN_PROGRAM_CHECKPOINT_H_

/**
 * @file
 * Solver checkpointing: snapshot and restore the full dynamic state of
 * a running solver (all layer state maps plus the step counter), so
 * long simulations can be split across runs and mid-run states can be
 * archived or diffed. States are stored losslessly (f64), independent
 * of the engine precision; spec geometry is embedded and verified on
 * restore.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/solver.h"

namespace cenn {

/** A snapshot of a solver's dynamic state. */
struct Checkpoint {
  std::string network_name;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::uint64_t steps = 0;
  std::vector<std::vector<double>> layer_states;
};

/** Captures a checkpoint from a precision-agnostic solver. */
Checkpoint CaptureCheckpoint(const DeSolver& solver);

/** Captures a checkpoint from any stepping engine. */
Checkpoint CaptureCheckpoint(const Engine& engine);

/**
 * True when `cp` has `spec`'s rows, columns and layer count and every
 * layer holds rows * cols values; false with a one-line `*error`.
 */
bool CheckpointFits(const Checkpoint& cp, const NetworkSpec& spec,
                    std::string* error);

/**
 * Restores a checkpoint into any stepping engine (states and step
 * counter). Fatal unless CheckpointFits.
 */
void RestoreCheckpoint(const Checkpoint& cp, Engine* engine);

/** Captures a checkpoint from a typed engine. */
template <typename T>
Checkpoint
CaptureCheckpoint(const MultilayerCenn<T>& engine)
{
  Checkpoint cp;
  cp.network_name = engine.Spec().name;
  cp.rows = engine.Spec().rows;
  cp.cols = engine.Spec().cols;
  cp.steps = engine.Steps();
  for (int l = 0; l < engine.Spec().NumLayers(); ++l) {
    cp.layer_states.push_back(engine.StateDoubles(l));
  }
  return cp;
}

/**
 * Restores a checkpoint into a typed engine (states and step counter).
 * Fatal unless CheckpointFits.
 */
template <typename T>
void
RestoreCheckpoint(const Checkpoint& cp, MultilayerCenn<T>* engine)
{
  const NetworkSpec& spec = engine->Spec();
  std::string error;
  if (!CheckpointFits(cp, spec, &error)) {
    CENN_FATAL(error);
  }
  for (int l = 0; l < spec.NumLayers(); ++l) {
    engine->MutableState(l) = Grid2D<T>::FromDoubles(
        spec.rows, spec.cols,
        cp.layer_states[static_cast<std::size_t>(l)]);
  }
  engine->SetSteps(cp.steps);
}

/**
 * Serializes a checkpoint to bytes: magic, payload, and a 64-bit
 * FNV-1a of everything before it (util/hash.h).
 */
std::vector<std::uint8_t> SerializeCheckpoint(const Checkpoint& cp);

/**
 * Parses a serialized checkpoint into `*out`. Returns false with a
 * one-line `*error` on short, torn, garbled or foreign input; every
 * length read from `bytes` is bounded by the bytes left before
 * anything is allocated, so no input can end the process.
 */
bool DeserializeCheckpoint(std::span<const std::uint8_t> bytes,
                           Checkpoint* out, std::string* error);

}  // namespace cenn

#endif  // CENN_PROGRAM_CHECKPOINT_H_
