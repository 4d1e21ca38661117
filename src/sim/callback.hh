/**
 * @file
 * Small-buffer-optimized callables for the simulation kernel. Every
 * scheduled event stores one of these; the simulator's hot paths
 * (DMA issue loop, walk completions, PRMB drains) capture only a
 * component pointer plus a few words of state, so steady-state
 * scheduling never touches the heap. Captures larger than the inline
 * buffer still work -- they transparently fall back to a heap
 * allocation -- but the cycle-level components are written to stay
 * under the limit.
 *
 * An event moves several times between creation and dispatch (into
 * the schedule call, into its calendar bucket, out again at
 * dispatch). Trivially copyable captures -- which all the hot
 * callbacks are -- relocate with a flat fixed-size copy instead of an
 * indirect call per move, which is worth several ns per event at
 * simulation rates of tens of millions of events per second.
 */

#ifndef NEUMMU_SIM_CALLBACK_HH
#define NEUMMU_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace neummu {

template <typename Sig>
class InlineCallback;

/**
 * Move-only callable with inline storage for captures up to
 * inlineBytes. Invoking an empty callback is undefined; the
 * EventQueue never stores empty callbacks.
 */
template <typename R, typename... Args>
class InlineCallback<R(Args...)>
{
  public:
    /**
     * Inline capture capacity. Sized for the simulator's largest hot
     * callback (a component pointer plus a TranslationResponse) with
     * room to spare; bump deliberately if a hot path ever outgrows
     * it, and let cold paths spill to the heap.
     */
    static constexpr std::size_t inlineBytes = 48;

    InlineCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (_buf) Fn(std::forward<F>(f));
            _ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_buf) =
                new Fn(std::forward<F>(f));
            _ops = &heapOps<Fn>;
        }
    }

    InlineCallback(InlineCallback &&other) noexcept
    {
        moveFrom(std::move(other));
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    R
    operator()(Args... args)
    {
        return _ops->invoke(_buf, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return _ops != nullptr; }

    /** True when a callable of type Fn is stored without allocating. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *buf, Args &&...args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *buf);
        /**
         * Relocation is a plain byte copy and destruction a no-op
         * (trivially copyable + destructible inline capture): moves
         * skip the indirect relocate call entirely.
         */
        bool trivial;
    };

    template <typename Fn> static const Ops inlineOps;
    template <typename Fn> static const Ops heapOps;

    void
    moveFrom(InlineCallback &&other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            if (_ops->trivial)
                std::memcpy(_buf, other._buf, inlineBytes);
            else
                _ops->relocate(_buf, other._buf);
        }
        other._ops = nullptr;
    }

    void
    reset() noexcept
    {
        if (_ops) {
            if (!_ops->trivial)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[inlineBytes];
    const Ops *_ops = nullptr;
};

template <typename R, typename... Args>
template <typename Fn>
const typename InlineCallback<R(Args...)>::Ops
    InlineCallback<R(Args...)>::inlineOps = {
        [](void *buf, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(buf)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *buf) {
            std::launder(reinterpret_cast<Fn *>(buf))->~Fn();
        },
        std::is_trivially_copyable_v<Fn> &&
            std::is_trivially_destructible_v<Fn>,
};

template <typename R, typename... Args>
template <typename Fn>
const typename InlineCallback<R(Args...)>::Ops
    InlineCallback<R(Args...)>::heapOps = {
        [](void *buf, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(buf))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
        [](void *buf) { delete *reinterpret_cast<Fn **>(buf); },
        false,
};

/** The EventQueue's event payload. */
using EventCallback = InlineCallback<void()>;

} // namespace neummu

#endif // NEUMMU_SIM_CALLBACK_HH
