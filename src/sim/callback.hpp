// Small-buffer-optimized, move-only callable wrapper.
//
// The model's notification wires (buffer head and ready notifications,
// unlock outputs, router and NA hooks) fire once per flit, so the cost
// of one call is on the hot path. std::function heap-allocates once a
// capture exceeds its tiny SBO (16 bytes on libstdc++) and drags in
// RTTI-based management; InlineFunction instead stores captures up to a
// compile-time budget directly in the object (the default budget is
// 3 pointer words) and spills to the heap only beyond that. Kernel
// events do not use it: they are TypedEvent records
// (sim/simulator.hpp).
//
// Differences from std::function, by design:
//   * move-only (so move-only captures, e.g. owned flits, work),
//   * no target() / RTTI,
//   * invoking an empty InlineFunction is undefined (the call sites
//     assert emptiness at install/schedule time instead of per call).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mango::sim {

template <typename Signature, std::size_t InlineWords = 3>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineWords>
class InlineFunction<R(Args...), InlineWords> {
 public:
  static constexpr std::size_t kInlineBytes = InlineWords * sizeof(void*);

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// True if a callable of type F would be stored inline (no heap).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>;
  }

 private:
  enum class Op { kDestroy, kMoveTo };

  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* dest);

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename FRef>
  void emplace(FRef&& f) {
    using F = std::decay_t<FRef>;
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(buf_)) F(std::forward<FRef>(f));
      invoke_ = [](void* obj, Args&&... args) -> R {
        return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dest) {
        F* src = static_cast<F*>(self);
        if (op == Op::kMoveTo) {
          ::new (dest) F(std::move(*src));
        }
        src->~F();
      };
    } else {
      F* p = new F(std::forward<FRef>(f));
      std::memcpy(buf_, &p, sizeof p);
      invoke_ = [](void* obj, Args&&... args) -> R {
        F* p2;
        std::memcpy(&p2, obj, sizeof p2);
        return (*p2)(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dest) {
        if (op == Op::kMoveTo) {
          std::memcpy(dest, self, sizeof(F*));  // ownership transfers
        } else {
          F* p2;
          std::memcpy(&p2, self, sizeof p2);
          delete p2;
        }
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(Op::kMoveTo, other.buf_, buf_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

/// The default notification wire type: a nullary inline callback with the
/// 3-word capture budget (enough for [this, port, vc]-style captures).
using InlineCallback = InlineFunction<void()>;

}  // namespace mango::sim
