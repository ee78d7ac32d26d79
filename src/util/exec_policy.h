#ifndef CENN_UTIL_EXEC_POLICY_H_
#define CENN_UTIL_EXEC_POLICY_H_

/**
 * @file
 * ExecPolicy — the one value type that says *how* a solver run
 * executes.
 *
 * Engine selection, numeric precision, memory system, band-shard
 * count and worker-team pinning have a single
 * parse/validate/print spelling shared by CLI flags (`--exec=...`),
 * manifest keys (`exec=...`), the serve submit JSON
 * (`"exec": "..."`) and the CENN_EXEC environment override.
 *
 * Grammar: colon-separated segments, each either `key=value` or a
 * bare token whose class is unambiguous:
 *
 *     --exec=soa:double:shards=8:pin=numa
 *     --exec=functional:double
 *     --exec=arch:hmc-int
 *
 * Keys: engine, precision, memory, shards, pin. Bare tokens: engine
 * names (functional|soa|arch), precisions (double|fixed|float) and
 * memory systems (ddr3|hmc-int|hmc-ext).
 *
 * Values are kept as strings (src/util sits below the engine layer);
 * runtime/engine_factory.h turns a validated policy into an engine.
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

  /** Band-parallel worker-team size (1 = serial). */
  int shards = 1;

  /** Worker pinning: "none", "cores" or "numa" (round-robin nodes). */
  std::string pin = "none";

  bool operator==(const ExecPolicy&) const = default;
};

/**
 * Parses the grammar above into `*out`, overriding only the fields
 * the text mentions (merge semantics: seed `*out` with defaults or a
 * lower-precedence policy first). When the text names an engine, each
 * field it leaves out that the engine cannot take returns to its
 * default: memory to ddr3 off arch, a double or float precision to
 * the engine default on arch, and float to the engine default off
 * soa. Setting the same field twice in one spec is an error. Returns
 * false with a one-line `*error`. Parsing checks per-field choices;
 * cross-field rules live in ValidateExecPolicy.
 */
bool ParseExecPolicy(const std::string& text, ExecPolicy* out,
                     std::string* error);

/**
 * Whole-policy validation: every field one of its choices, shards
 * >= 1, and no field naming a setting its engine would ignore — float
 * precision is soa-only, the arch engine simulates the Q16.16
 * datapath only (precision fixed), and a memory system other than
 * ddr3 needs the arch engine. A policy passing this never trips
 * CENN_FATAL in BuildEngine. Returns false with a one-line `*error`.
 */
bool ValidateExecPolicy(const ExecPolicy& policy, std::string* error);

/**
 * Canonical spelling: engine first, then every non-default field
 * ("soa:double:shards=8:pin=numa"). Round-trips: parsing the
 * result reproduces `policy` exactly.
 */
std::string FormatExecPolicy(const ExecPolicy& policy);

}  // namespace cenn

#endif  // CENN_UTIL_EXEC_POLICY_H_
