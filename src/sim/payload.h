#ifndef DSPS_SIM_PAYLOAD_H_
#define DSPS_SIM_PAYLOAD_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dsps::sim {

/// A message's application payload: one value of any copyable type,
/// type-erased like an `any`, but stored inline when it fits in
/// kInlineBytes, so putting an envelope on a Message allocates nothing.
/// A larger (or over-aligned) value falls back to one heap allocation.
class Payload {
 public:
  /// Fits the largest envelope outside ordering/ (TupleEnvelope and
  /// RehomeBatchEnvelope, 40 bytes each).
  static constexpr size_t kInlineBytes = 40;

  Payload() noexcept {}

  /// Holds a copy of (or moves in) `value`; implicit, like an `any`, so
  /// `msg.payload = SomeEnvelope{...}` reads naturally.
  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_copy_constructible_v<D>,
                  "a payload is copied with its message");
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<T>(value));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<T>(value)));
    }
    ops_ = &kOps<D>;
  }

  Payload(const Payload& other) {
    if (other.ops_ != nullptr) other.ops_->copy(other, *this);
  }
  Payload(Payload&& other) noexcept {
    if (other.ops_ != nullptr) other.ops_->move(other, *this);
  }
  Payload& operator=(const Payload& other) {
    if (this != &other) *this = Payload(other);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) other.ops_->move(other, *this);
    }
    return *this;
  }
  ~Payload() { reset(); }

  /// Destroys the held value, if any.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

  bool has_value() const noexcept { return ops_ != nullptr; }

  /// The held value when it is a `T`, else nullptr (like `any_cast<T>`
  /// on a pointer).
  template <typename T>
  const T* get() const noexcept {
    return ops_ == &kOps<T> ? Ptr<T>() : nullptr;
  }

 private:
  /// Per-type operations; the table's address also identifies the type.
  struct Ops {
    void (*copy)(const Payload& from, Payload& to);
    /// Leaves `from` empty.
    void (*move)(Payload& from, Payload& to) noexcept;
    void (*destroy)(Payload& p) noexcept;
  };

  template <typename T>
  static constexpr bool kInline =
      sizeof(T) <= kInlineBytes && alignof(T) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  T* Ptr() const noexcept {
    void* raw = const_cast<unsigned char*>(buf_);
    if constexpr (kInline<T>) {
      return std::launder(static_cast<T*>(raw));
    } else {
      return *std::launder(static_cast<T**>(raw));
    }
  }

  template <typename T>
  static void Copy(const Payload& from, Payload& to) {
    if constexpr (kInline<T>) {
      ::new (static_cast<void*>(to.buf_)) T(*from.Ptr<T>());
    } else {
      ::new (static_cast<void*>(to.buf_)) T*(new T(*from.Ptr<T>()));
    }
    to.ops_ = from.ops_;
  }
  template <typename T>
  static void Move(Payload& from, Payload& to) noexcept {
    if constexpr (kInline<T>) {
      ::new (static_cast<void*>(to.buf_)) T(std::move(*from.Ptr<T>()));
      from.Ptr<T>()->~T();
    } else {
      ::new (static_cast<void*>(to.buf_)) T*(from.Ptr<T>());
    }
    to.ops_ = from.ops_;
    from.ops_ = nullptr;
  }
  template <typename T>
  static void Destroy(Payload& p) noexcept {
    if constexpr (kInline<T>) {
      p.Ptr<T>()->~T();
    } else {
      delete p.Ptr<T>();
    }
  }

  template <typename T>
  static constexpr Ops kOps = {&Copy<T>, &Move<T>, &Destroy<T>};

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_PAYLOAD_H_
