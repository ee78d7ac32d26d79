#include "kernels/kernel_path.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace cenn {

const char kKernelPathChoices[] = "auto|scalar|blocked|simd";

const char*
KernelPathName(KernelPath path)
{
  switch (path) {
    case KernelPath::kAuto:
      return "auto";
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kBlocked:
      return "blocked";
    case KernelPath::kSimd:
      return "simd";
  }
  return "?";
}

bool
ParseKernelPath(const char* text, KernelPath* out)
{
  if (text == nullptr || out == nullptr) {
    return false;
  }
  if (std::strcmp(text, "auto") == 0) {
    *out = KernelPath::kAuto;
    return true;
  }
  if (std::strcmp(text, "scalar") == 0) {
    *out = KernelPath::kScalar;
    return true;
  }
  if (std::strcmp(text, "blocked") == 0) {
    *out = KernelPath::kBlocked;
    return true;
  }
  if (std::strcmp(text, "simd") == 0) {
    *out = KernelPath::kSimd;
    return true;
  }
  return false;
}

KernelPath
ResolveKernelPath(KernelPath requested)
{
  const char* env = std::getenv("CENN_KERNEL_PATH");
  if (env != nullptr && *env != '\0') {  // empty means unset
    KernelPath forced;
    if (!ParseKernelPath(env, &forced)) {
      CENN_FATAL("CENN_KERNEL_PATH='", env, "' is not a kernel path (valid: ",
                 kKernelPathChoices, ")");
    }
    if (forced != KernelPath::kAuto) {
      return forced;
    }
  }
  return requested == KernelPath::kAuto ? KernelPath::kSimd : requested;
}

}  // namespace cenn
