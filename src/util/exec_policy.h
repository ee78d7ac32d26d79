#ifndef CENN_UTIL_EXEC_POLICY_H_
#define CENN_UTIL_EXEC_POLICY_H_

/**
 * @file
 * ExecPolicy — the one value type that says *how* a solver run
 * executes.
 *
 * Engine selection, numeric precision, memory system, kernel path,
 * band-shard count and worker-team pinning have a single
 * parse/validate/print spelling shared by CLI flags (`--exec=...`),
 * manifest keys (`exec=...`), the serve submit JSON
 * (`"exec": "..."`) and the CENN_EXEC environment override.
 *
 * Grammar: colon-separated segments, each either `key=value` or a
 * bare token whose class is unambiguous:
 *
 *     --exec=soa:simd:shards=8:pin=numa
 *     --exec=functional:double
 *     --exec=soa:double:blocked:shards=4
 *
 * Keys: engine, precision, memory, kernel, shards, pin. Bare tokens:
 * engine names (functional|soa|arch), precisions (double|fixed|
 * float), kernel paths (auto|scalar|blocked|simd) and memory systems
 * (ddr3|hmc-int|hmc-ext).
 *
 * Values are kept as strings (src/util sits below the kernel layer);
 * canonicalization to enums happens in runtime/engine_factory.h. The
 * choice lists here must stay in sync with kernels/kernel_path.h and
 * engine_factory — tests/test_engine.cc asserts the agreement.
 */

#include <string>

namespace cenn {

/** How a run executes: backend, kernels and team shape. */
struct ExecPolicy {
  /**
   * "soa" (the default: the fast kernels), "functional" (the IR-walking
   * cross-engine oracle, and the only Heun engine) or "arch".
   */
  std::string engine = "soa";

  /** "double", "fixed" or "float"; empty = engine default (fixed). */
  std::string precision;

  /** Arch memory system: "ddr3", "hmc-int" or "hmc-ext". */
  std::string memory = "ddr3";

  /** SoA stepping kernels: "auto" (= simd), "scalar", "blocked" or
      "simd". */
  std::string kernel_path = "auto";

  /** Band-parallel worker-team size (1 = serial). */
  int shards = 1;

  /** Worker pinning: "none", "cores" or "numa" (round-robin nodes). */
  std::string pin = "none";

  bool operator==(const ExecPolicy&) const = default;
};

/**
 * Parses the grammar above into `*out`, overriding only the fields
 * the text mentions (merge semantics: seed `*out` with defaults or a
 * lower-precedence policy first). Setting the same field twice in one
 * spec is an error. Returns false with a one-line `*error`. Parsing
 * checks per-field choices; cross-field rules live in
 * ValidateExecPolicy.
 */
bool ParseExecPolicy(const std::string& text, ExecPolicy* out,
                     std::string* error);

/**
 * Whole-policy validation: every field one of its choices, shards
 * >= 1, float precision soa-only. A policy passing this never trips
 * CENN_FATAL in BuildEngine. Returns false with a one-line `*error`.
 */
bool ValidateExecPolicy(const ExecPolicy& policy, std::string* error);

/**
 * Canonical spelling: engine first, then every non-default field
 * ("soa:double:simd:shards=8:pin=numa"). Round-trips: parsing the
 * result reproduces `policy` exactly.
 */
std::string FormatExecPolicy(const ExecPolicy& policy);

}  // namespace cenn

#endif  // CENN_UTIL_EXEC_POLICY_H_
