#include "lut/lut_store.h"

#include <bit>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/stat_registry.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cenn {

namespace {

std::uint64_t
FnvMixDouble(std::uint64_t h, double v)
{
  return FnvMix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

bool
LutKey::operator==(const LutKey& other) const
{
  return function == other.function && fingerprint == other.fingerprint &&
         min_p_bits == other.min_p_bits && max_p_bits == other.max_p_bits &&
         frac_index_bits == other.frac_index_bits &&
         quant_format == other.quant_format;
}

bool
LutKey::operator<(const LutKey& other) const
{
  return std::tie(function, fingerprint, min_p_bits, max_p_bits,
                  frac_index_bits, quant_format) <
         std::tie(other.function, other.fingerprint, other.min_p_bits,
                  other.max_p_bits, other.frac_index_bits,
                  other.quant_format);
}

std::string
LutKey::ToString() const
{
  std::ostringstream out;
  out << function << "/["
      << std::bit_cast<double>(min_p_bits) << ","
      << std::bit_cast<double>(max_p_bits) << "]/f" << frac_index_bits
      << "/q" << quant_format << "#" << std::hex << fingerprint;
  return out.str();
}

LutKey
MakeLutKey(const NonlinearFunction& fn, const LutSpec& spec)
{
  LutKey key;
  key.function = fn.Name();
  key.min_p_bits = std::bit_cast<std::uint64_t>(spec.min_p);
  key.max_p_bits = std::bit_cast<std::uint64_t>(spec.max_p);
  key.frac_index_bits = spec.frac_index_bits;

  // Content fingerprint: the function's value at fixed probe points
  // plus its first three derivatives at two of them. Two functions
  // registered under the same name but computing different math (or
  // the same math with a different finite-difference step, which
  // changes the sampled Taylor coefficients) hash apart; probes are
  // bit-pattern hashes, so even NaN-producing functions fingerprint
  // deterministically.
  static constexpr double kProbes[] = {-2.5,  -1.0,  -0.375, 0.0,
                                       0.625, 1.875, 3.25};
  std::uint64_t h = 1469598103934665603ull;
  for (const double x : kProbes) {
    h = FnvMixDouble(h, fn.Value(x));
  }
  for (const double x : {-0.375, 0.625}) {
    for (int order = 1; order <= 3; ++order) {
      h = FnvMixDouble(h, fn.Derivative(order, x));
    }
  }
  key.fingerprint = h;
  return key;
}

void
LutStore::State::FireEvent(const char* reason)
{
  // Listeners run under listener_mu so RemoveEventListener can block
  // until in-flight callbacks finish. Callbacks must not re-enter the
  // store (forcing a metrics sample reads only bound atomics).
  std::lock_guard<std::mutex> lock(listener_mu);
  for (const auto& [token, listener] : listeners) {
    listener(reason);
  }
}

LutStore::LutStore() : state_(std::make_shared<State>()) {}

LutStore::~LutStore() = default;

LutStore&
LutStore::Global()
{
  // Leaked on purpose: tables can be dropped during static teardown
  // (model singletons hold banks indirectly), and their deleters must
  // find a live State. The weak_ptr in each deleter also guards the
  // reverse order.
  static LutStore* store = new LutStore();
  return *store;
}

std::shared_ptr<const OffChipLut>
LutStore::BuildTable(NonlinearFnPtr fn, const LutSpec& spec,
                     const LutKey& key)
{
  auto* table = new OffChipLut(std::move(fn), spec);
  const std::uint64_t bytes = table->FootprintBytes();
  std::weak_ptr<State> weak_state = state_;
  return std::shared_ptr<const OffChipLut>(
      table, [weak_state, key, bytes](const OffChipLut* p) {
        const std::shared_ptr<State> st = weak_state.lock();
        if (st == nullptr) {
          delete p;  // store already gone; nothing to account
          return;
        }
        {
          std::lock_guard<std::mutex> lock(st->mu);
          // Erase only an expired mapping: a racing Acquire may have
          // re-interned this key with a fresh table between our
          // refcount hitting zero and this deleter running.
          const auto it = st->cache.find(key);
          if (it != st->cache.end() && it->second.expired()) {
            st->cache.erase(it);
          }
          st->evictions.fetch_add(1, std::memory_order_relaxed);
          st->resident_tables.fetch_sub(1, std::memory_order_relaxed);
          st->resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
        }
        delete p;
        st->FireEvent("lut_evict");
      });
}

LutBankHandle
LutStore::Acquire(const NetworkSpec& spec, const LutConfig& config)
{
  // Owning handles keyed by raw pointer: interned tables must keep
  // their function alive across sessions, unlike the retired
  // per-engine bank build that aliased the spec's pointers.
  std::map<const NonlinearFunction*, NonlinearFnPtr> owning;
  for (NonlinearFnPtr& fn : spec.FunctionHandles()) {
    const NonlinearFunction* raw = fn.get();
    owning.emplace(raw, std::move(fn));
  }

  std::vector<std::pair<const NonlinearFunction*,
                        std::shared_ptr<const OffChipLut>>>
      tables;
  tables.reserve(owning.size());
  bool built_any = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (const NonlinearFunction* fn : spec.Functions()) {
      const LutSpec& lut_spec = config.SpecFor(fn->Name());
      const LutKey key = MakeLutKey(*fn, lut_spec);
      std::shared_ptr<const OffChipLut> table;
      const auto it = state_->cache.find(key);
      if (it != state_->cache.end()) {
        table = it->second.lock();
      }
      if (table != nullptr) {
        state_->shared_acquires.fetch_add(1, std::memory_order_relaxed);
      } else {
        table = BuildTable(owning.at(fn), lut_spec, key);
        state_->cache[key] = table;
        state_->builds.fetch_add(1, std::memory_order_relaxed);
        state_->resident_tables.fetch_add(1, std::memory_order_relaxed);
        state_->resident_bytes.fetch_add(table->FootprintBytes(),
                                         std::memory_order_relaxed);
        built_any = true;
      }
      tables.emplace_back(fn, std::move(table));
    }
  }
  if (built_any) {
    state_->FireEvent("lut_build");
  }
  return LutBankHandle(new LutBank(config, std::move(tables)));
}

std::uint64_t
LutStore::Builds() const
{
  return state_->builds.load(std::memory_order_relaxed);
}

std::uint64_t
LutStore::SharedAcquires() const
{
  return state_->shared_acquires.load(std::memory_order_relaxed);
}

std::uint64_t
LutStore::Evictions() const
{
  return state_->evictions.load(std::memory_order_relaxed);
}

std::uint64_t
LutStore::ResidentTables() const
{
  return state_->resident_tables.load(std::memory_order_relaxed);
}

std::uint64_t
LutStore::ResidentBytes() const
{
  return state_->resident_bytes.load(std::memory_order_relaxed);
}

void
LutStore::BindStats(StatRegistry* registry, const std::string& prefix)
{
  CENN_ASSERT(registry != nullptr, "LutStore::BindStats: null registry");
  registry->BindAtomicCounter(prefix + "lut.store.builds",
                              "LUT tables sampled (intern misses)",
                              &state_->builds);
  registry->BindAtomicCounter(prefix + "lut.store.shared_acquires",
                              "acquires satisfied by a resident table",
                              &state_->shared_acquires);
  registry->BindAtomicCounter(prefix + "lut.store.evictions",
                              "tables destroyed on last handle drop",
                              &state_->evictions);
  // Residency shrinks on eviction: bind as gauges, not counters, so
  // metrics checkers may enforce counter monotonicity.
  const std::shared_ptr<State> state = state_;
  registry->BindDerived(prefix + "lut.store.resident_tables",
                        "tables currently resident", [state] {
                          return static_cast<double>(state->resident_tables
                                                         .load());
                        });
  registry->BindDerived(prefix + "lut.store.resident_bytes",
                        "bytes held by resident tables", [state] {
                          return static_cast<double>(state->resident_bytes
                                                         .load());
                        });
}

std::uint64_t
LutStore::AddEventListener(EventListener listener)
{
  CENN_ASSERT(listener != nullptr, "LutStore: null event listener");
  std::lock_guard<std::mutex> lock(state_->listener_mu);
  const std::uint64_t token = state_->next_listener_token++;
  state_->listeners.emplace(token, std::move(listener));
  return token;
}

void
LutStore::RemoveEventListener(std::uint64_t token)
{
  std::lock_guard<std::mutex> lock(state_->listener_mu);
  state_->listeners.erase(token);
}

}  // namespace cenn
