/**
 * @file
 * Small-buffer, move-only callable — the allocation-free replacement
 * for `std::function` on request completion paths.
 *
 * `std::function` heap-allocates for any capture beyond ~2 words and
 * requires copyable targets, which both forbids captures that own a
 * moved-in request and puts a malloc/free pair on every walk and
 * memory access. InlineFunction stores the callable inline up to a
 * caller-chosen byte budget (default sized for this codebase's hot
 * captures) and needs only movability. Oversized captures still work
 * — they fall back to a heap box — so cold paths keep their ergonomic
 * lambdas while hot paths stay allocation-free.
 *
 * Captures that are trivially copyable and trivially destructible (a
 * `this` pointer plus a few ids — most completion callbacks) move with
 * a fixed-size byte copy and are never destroyed, so moving a request
 * that carries one costs no indirect call.
 */

#ifndef GPUWALK_SIM_INLINE_FUNCTION_HH
#define GPUWALK_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gpuwalk::sim {

template <typename Signature, std::size_t InlineBytes = 48>
class InlineFunction; // primary template; only R(As...) is defined

template <typename R, typename... As, std::size_t InlineBytes>
class InlineFunction<R(As...), InlineBytes>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>
                  && std::is_invocable_r_v<R, std::decay_t<F> &, As...>>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>
                  && std::is_invocable_r_v<R, std::decay_t<F> &, As...>>>
    InlineFunction &
    operator=(F &&fn)
    {
        reset();
        emplace(std::forward<F>(fn));
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(As... as)
    {
        return ops_->invoke(storage(), static_cast<As &&>(as)...);
    }

    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

  private:
    /** A null relocate means the stored bytes move by plain copy; a
     *  null destroy means there is nothing to destroy. */
    struct Ops
    {
        R (*invoke)(void *, As &&...);
        void (*relocate)(void *dst, void *src); // move-construct + destroy
        void (*destroy)(void *);
    };

    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= InlineBytes
        && alignof(F) <= alignof(std::max_align_t)
        && std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    static constexpr bool trivialInline =
        fitsInline<F> && std::is_trivially_copyable_v<F>
        && std::is_trivially_destructible_v<F>;

    template <typename F>
    struct InlineOps
    {
        static R
        invoke(void *p, As &&...as)
        {
            return (*std::launder(reinterpret_cast<F *>(p)))(
                std::forward<As>(as)...);
        }

        static void
        relocate(void *dst, void *src)
        {
            F *from = std::launder(reinterpret_cast<F *>(src));
            ::new (dst) F(std::move(*from));
            from->~F();
        }

        static void
        destroy(void *p)
        {
            std::launder(reinterpret_cast<F *>(p))->~F();
        }

        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename F>
    struct TrivialOps
    {
        static constexpr Ops ops{&InlineOps<F>::invoke, nullptr, nullptr};
    };

    template <typename F>
    struct BoxedOps
    {
        static R
        invoke(void *p, As &&...as)
        {
            return (**static_cast<F **>(p))(std::forward<As>(as)...);
        }

        static void
        destroy(void *p)
        {
            delete *static_cast<F **>(p);
        }

        // The box pointer itself relocates by byte copy.
        static constexpr Ops ops{&invoke, nullptr, &destroy};
    };

    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        if constexpr (trivialInline<D>) {
            ::new (storage()) D(std::forward<F>(fn));
            zeroTail<sizeof(D)>();
            ops_ = &TrivialOps<D>::ops;
        } else if constexpr (fitsInline<D>) {
            ::new (storage()) D(std::forward<F>(fn));
            ops_ = &InlineOps<D>::ops;
        } else {
            // Oversized or over-aligned capture: heap-boxed fallback.
            *static_cast<D **>(storage()) = new D(std::forward<F>(fn));
            zeroTail<sizeof(D *)>();
            ops_ = &BoxedOps<D>::ops;
        }
    }

    /** Zeroes the buffer past the first @p Used bytes, so a byte-copy
     *  relocation never reads uninitialised storage. */
    template <std::size_t Used>
    void
    zeroTail()
    {
        if constexpr (Used < InlineBytes)
            std::memset(store_ + Used, 0, InlineBytes - Used);
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(storage(), other.storage());
            else
                std::memcpy(store_, other.store_, InlineBytes);
            other.ops_ = nullptr;
        }
    }

    void *storage() { return store_; }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char store_[InlineBytes];

    static_assert(InlineBytes >= sizeof(void *),
                  "inline buffer must hold at least the boxed pointer");
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_INLINE_FUNCTION_HH
