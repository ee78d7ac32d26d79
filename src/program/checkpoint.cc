#include "program/checkpoint.h"

#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace cenn {
namespace {

// "CeSF": the format whose trailer is a 64-bit FNV-1a over every
// preceding byte. Files of the older additive-sum format ("CeSP")
// read as foreign, so a resume over one starts the job over.
constexpr std::uint32_t kCheckpointMagic = 0x43655346;

/** Bytes of the trailing FNV-1a hash. */
constexpr std::size_t kTrailerBytes = 8;

void
PutU32(std::vector<std::uint8_t>* out, std::uint32_t v)
{
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void
PutU64(std::vector<std::uint8_t>* out, std::uint64_t v)
{
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void
PutF64(std::vector<std::uint8_t>* out, double v)
{
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  PutU64(out, u);
}

/** Bounds-checked little-endian reads; never reads past the end. */
class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    /** Bytes not yet consumed. */
    std::size_t Remaining() const { return bytes_.size() - pos_; }

    /** Reads a `width`-byte unsigned; false when fewer bytes remain. */
    bool
    Uint(std::size_t width, std::uint64_t* out)
    {
        if (Remaining() < width) {
          return false;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i) {
          v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
        }
        pos_ += width;
        *out = v;
        return true;
    }

    /** Consumes `n` <= Remaining() bytes as text. */
    std::string
    Text(std::size_t n)
    {
        const auto* begin = reinterpret_cast<const char*>(&bytes_[pos_]);
        pos_ += n;
        return std::string(begin, n);
    }

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

}  // namespace

Checkpoint
CaptureCheckpoint(const DeSolver& solver)
{
  Checkpoint cp;
  cp.network_name = solver.Spec().name;
  cp.rows = solver.Spec().rows;
  cp.cols = solver.Spec().cols;
  cp.steps = solver.Steps();
  for (int l = 0; l < solver.Spec().NumLayers(); ++l) {
    cp.layer_states.push_back(solver.StateDoubles(l));
  }
  return cp;
}

Checkpoint
CaptureCheckpoint(const Engine& engine)
{
  Checkpoint cp;
  cp.network_name = engine.Spec().name;
  cp.rows = engine.Spec().rows;
  cp.cols = engine.Spec().cols;
  cp.steps = engine.Steps();
  for (int l = 0; l < engine.Spec().NumLayers(); ++l) {
    cp.layer_states.push_back(engine.Snapshot(l));
  }
  return cp;
}

bool
CheckpointFits(const Checkpoint& cp, const NetworkSpec& spec,
               std::string* error)
{
  if (cp.rows != spec.rows || cp.cols != spec.cols ||
      cp.layer_states.size() != static_cast<std::size_t>(spec.NumLayers())) {
    *error = internal::Format(
        "checkpoint geometry mismatch: ", cp.rows, "x", cp.cols, "/",
        cp.layer_states.size(), " layers vs ", spec.rows, "x", spec.cols,
        "/", spec.NumLayers());
    return false;
  }
  for (std::size_t l = 0; l < cp.layer_states.size(); ++l) {
    if (cp.layer_states[l].size() != spec.rows * spec.cols) {
      *error = internal::Format("checkpoint layer ", l, " holds ",
                                cp.layer_states[l].size(),
                                " values, expected ", spec.rows * spec.cols);
      return false;
    }
  }
  return true;
}

void
RestoreCheckpoint(const Checkpoint& cp, Engine* engine)
{
  const NetworkSpec& spec = engine->Spec();
  std::string error;
  if (!CheckpointFits(cp, spec, &error)) {
    CENN_FATAL(error);
  }
  for (int l = 0; l < spec.NumLayers(); ++l) {
    engine->RestoreState(l,
                         cp.layer_states[static_cast<std::size_t>(l)]);
  }
  engine->SetSteps(cp.steps);
}

std::vector<std::uint8_t>
SerializeCheckpoint(const Checkpoint& cp)
{
  std::vector<std::uint8_t> out;
  PutU32(&out, kCheckpointMagic);
  PutU32(&out, static_cast<std::uint32_t>(cp.network_name.size()));
  for (char c : cp.network_name) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  PutU64(&out, cp.rows);
  PutU64(&out, cp.cols);
  PutU64(&out, cp.steps);
  PutU32(&out, static_cast<std::uint32_t>(cp.layer_states.size()));
  for (const auto& field : cp.layer_states) {
    PutU64(&out, field.size());
    for (double v : field) {
      PutF64(&out, v);
    }
  }
  PutU64(&out, FnvMix(kFnvOffsetBasis, out));
  return out;
}

bool
DeserializeCheckpoint(std::span<const std::uint8_t> bytes, Checkpoint* out,
                      std::string* error)
{
  auto fail = [&bytes, error](const std::string& what) {
    *error = "checkpoint " + what + " (" + std::to_string(bytes.size()) +
             " bytes)";
    return false;
  };
  // Smallest valid file: magic, empty name, geometry, steps, zero
  // layers, checksum.
  constexpr std::size_t kMinBytes = 4 + 4 + 8 + 8 + 8 + 4 + kTrailerBytes;
  if (bytes.size() < kMinBytes) {
    return fail("too short");
  }
  const std::span<const std::uint8_t> body =
      bytes.first(bytes.size() - kTrailerBytes);
  Reader r(body);
  std::uint64_t magic = 0;
  r.Uint(4, &magic);
  if (magic != kCheckpointMagic) {
    return fail("has bad magic (not a checkpoint)");
  }
  std::uint64_t stored = 0;
  Reader(bytes.last(kTrailerBytes)).Uint(kTrailerBytes, &stored);
  if (FnvMix(kFnvOffsetBasis, body) != stored) {
    return fail("checksum mismatch");
  }

  Checkpoint cp;
  std::uint64_t name_len = 0;
  if (!r.Uint(4, &name_len) || name_len > r.Remaining()) {
    return fail("name overruns the file");
  }
  cp.network_name = r.Text(name_len);
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t n_layers = 0;
  if (!r.Uint(8, &rows) || !r.Uint(8, &cols) || !r.Uint(8, &cp.steps) ||
      !r.Uint(4, &n_layers)) {
    return fail("header is truncated");
  }
  cp.rows = rows;
  cp.cols = cols;
  // Every layer carries at least its 8-byte length word.
  if (n_layers > r.Remaining() / 8) {
    return fail("layer count overruns the file");
  }
  cp.layer_states.resize(n_layers);
  for (std::vector<double>& field : cp.layer_states) {
    std::uint64_t n = 0;
    if (!r.Uint(8, &n) || n > r.Remaining() / 8) {
      return fail("layer length overruns the file");
    }
    field.resize(n);
    for (double& v : field) {
      std::uint64_t u = 0;
      r.Uint(8, &u);
      std::memcpy(&v, &u, sizeof(v));
    }
  }
  if (r.Remaining() != 0) {
    return fail("has trailing bytes");
  }
  *out = std::move(cp);
  return true;
}

}  // namespace cenn
