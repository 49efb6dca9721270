// Small-buffer-optimized callbacks for the event engine and other hot paths.
//
// `std::function` heap-allocates for any capture larger than (typically) two
// pointers; the simulator schedules tens of millions of callbacks per run,
// so that allocation *is* the hot path. InlineFn stores any nothrow-movable
// callable of up to kInlineBytes (64) in place, allocation-free, and falls
// back to a single heap cell above that. Move-only (no copies: events are
// scheduled once and dispatched once).
//
// `InlineFn<void(Args...)>` generalizes over the call signature so that the
// same machinery serves the engine's event callbacks (`InlineCallback`,
// void()), the NIC's wire-departure callbacks (void(Time)), and worker task
// queues.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mccl::sim {

template <typename Sig>
class InlineFn;

template <typename... Args>
class InlineFn<void(Args...)> {
 public:
  /// Inline capture budget, one cache line. The fattest datapath lambda
  /// fills it exactly: a NIC local-copy completion (this, src, dst, len:
  /// 32 bytes) carrying the collective's 32-byte staging-slot completion
  /// inline (see Nic::kCopyDoneBytes).
  static constexpr std::size_t kInlineBytes = 64;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = heap_vtable<Fn>();
    }
  }

  InlineFn(InlineFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) vt_->relocate(storage_, other.storage_);
    other.vt_ = nullptr;
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()(Args... args) {
    vt_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Invokes the callable, then destroys it, leaving *this empty. A single
  /// fused vtable entry serves both operations (one indirect call per
  /// event; the destroy compiles to nothing for trivially destructible
  /// captures) — the event engine's dispatch path uses this to run
  /// callbacks in place (stable pool cells) instead of paying a relocate
  /// per event. The callable is destroyed *before* consume returns so
  /// captured resources (packet refs, completions) are released the moment
  /// the event finishes.
  void consume(Args... args) {
    const VTable* vt = vt_;
    vt_ = nullptr;
    vt->consume(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    void (*invoke)(void* s, Args... args);
    // Move-constructs into dst from src, then destroys src's value.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* s);
    // Fused invoke-then-destroy (the dispatch fast path).
    void (*consume)(void* s, Args... args);
  };

  template <typename Fn>
  static Fn* as(void* s) {
    return std::launder(reinterpret_cast<Fn*>(s));
  }

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* s, Args... args) {
          (*as<Fn>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          Fn* f = as<Fn>(src);
          ::new (dst) Fn(std::move(*f));
          f->~Fn();
        },
        [](void* s) { as<Fn>(s)->~Fn(); },
        [](void* s, Args... args) {
          Fn* f = as<Fn>(s);
          (*f)(std::forward<Args>(args)...);
          f->~Fn();
        }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static constexpr VTable vt{
        [](void* s, Args... args) {
          (**as<Fn*>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*as<Fn*>(src));
        },
        [](void* s) { delete *as<Fn*>(s); },
        [](void* s, Args... args) {
          Fn* f = *as<Fn*>(s);
          (*f)(std::forward<Args>(args)...);
          delete f;
        }};
    return &vt;
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/// Event-engine callback: the zero-argument instantiation.
using InlineCallback = InlineFn<void()>;

}  // namespace mccl::sim
