#include "src/debug/validate.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mccl::debug {
namespace {

// Reporting is thread-safe: any thread may trip a validator. Trap install /
// uninstall happens on the driving thread only (traps are scoped objects in
// tests), but the mutex makes concurrent reports — and reports racing a
// trap's caught_ push — well defined.
std::mutex g_mu;
ViolationTrap* g_trap = nullptr;
std::uint64_t g_count = 0;

}  // namespace

void report(const char* checker, const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::unique_lock<std::mutex> lock(g_mu);
  ++g_count;
  if (g_trap != nullptr) {
    g_trap->caught_.push_back(Violation{checker, buf});
    return;
  }
  lock.unlock();
  std::fprintf(stderr, "mccl validate violation: [%s] %s\n", checker, buf);
  std::abort();
}

std::uint64_t violation_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_count;
}

ViolationTrap::ViolationTrap() {
  std::lock_guard<std::mutex> lock(g_mu);
  prev_ = g_trap;
  g_trap = this;
}

ViolationTrap::~ViolationTrap() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_trap = prev_;
}

bool ViolationTrap::tripped(std::string_view checker) const {
  for (const Violation& v : caught_) {
    if (v.checker == checker) return true;
    if (v.checker.size() > checker.size() &&
        v.checker.compare(0, checker.size(), checker) == 0 &&
        v.checker[checker.size()] == '.')
      return true;
  }
  return false;
}

}  // namespace mccl::debug
