/**
 * @file
 * A small-buffer, move-only callable wrapper for the simulation hot
 * path.
 *
 * std::function heap-allocates for any capture larger than (libstdc++)
 * two pointers, and the kernel schedules millions of events whose
 * captures are a handful of pointers and ids — just over that line.
 * InlineFunction stores captures up to InlineSize bytes in place, so
 * the common event shapes never touch the allocator; larger or
 * over-aligned callables fall back to the heap (counted, see
 * heapAllocations()) rather than failing to compile.
 *
 * Moving is the kernel's other per-event cost: every event's callback
 * moves into the slab, out of it and is dropped. A target that is
 * trivially copyable and trivially destructible and a whole number
 * of words long (a lambda capturing pointers and ids by value, the
 * common shape) relocates by copying its sizeof bytes, which the ops
 * table records, and needs no destroy call. A heap target relocates
 * by copying its pointer. Only other targets pay an indirect call
 * per move and drop.
 *
 * Differences from std::function, by design:
 *  - move-only (no copy; move-only captures like std::unique_ptr are
 *    accepted),
 *  - no target_type()/target() RTTI,
 *  - invoking an empty InlineFunction is undefined (the kernel never
 *    stores empty callbacks; operator bool is provided for asserts).
 */

#ifndef UMANY_SIM_INLINE_FUNCTION_HH
#define UMANY_SIM_INLINE_FUNCTION_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace umany
{

namespace detail
{
/** Process-wide count of InlineFunction heap fallbacks (all sizes). */
inline std::atomic<std::uint64_t> inlineFnHeapAllocs{0};
} // namespace detail

template <typename Signature, std::size_t InlineSize = 64>
class InlineFunction; // primary; only the R(Args...) form exists

template <typename R, typename... Args, std::size_t InlineSize>
class InlineFunction<R(Args...), InlineSize>
{
  public:
    /** Does a callable of type F avoid the heap fallback? */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= InlineSize &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<F>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            ptr_ = new D(std::forward<F>(f));
            detail::inlineFnHeapAllocs.fetch_add(
                1, std::memory_order_relaxed);
            ops_ = &heapOps<D>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
    {
        takeFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            takeFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the target. @pre *this is non-empty. */
    R
    operator()(Args... args)
    {
        return ops_->invoke(this, std::forward<Args>(args)...);
    }

    /**
     * Cumulative count of heap-fallback constructions, process-wide
     * across every InlineFunction instantiation. The kernel bench and
     * the no-alloc unit tests difference this around a window.
     */
    static std::uint64_t
    heapAllocations()
    {
        return detail::inlineFnHeapAllocs.load(
            std::memory_order_relaxed);
    }

  private:
    struct Ops
    {
        R (*invoke)(InlineFunction *, Args &&...);
        /**
         * Move the target from src into dst (dst is raw) and end
         * src's; null when copying the first @c size bytes of the
         * storage relocates it.
         */
        void (*relocate)(InlineFunction *src, InlineFunction *dst);
        /** Destroy the target; null when it needs no destruction. */
        void (*destroy)(InlineFunction *);
        /** Bytes to copy, whole words, when @c relocate is null. */
        std::size_t size;
    };

    static constexpr std::size_t wordBytes = sizeof(std::uint64_t);

    /** Bytes of a D's state: none for an empty class. */
    template <typename D>
    static constexpr std::size_t stateBytes =
        std::is_empty_v<D> ? 0 : sizeof(D);

    /**
     * Can a D held in the buffer move by copying its bytes? The copy
     * goes a word at a time, inline, so it also needs whole words;
     * every capture holding a pointer has them.
     */
    template <typename D>
    static constexpr bool trivialTarget =
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D> &&
        stateBytes<D> % wordBytes == 0;

    template <typename D>
    D *
    inlineTarget()
    {
        return std::launder(reinterpret_cast<D *>(buf_));
    }

    template <typename D> static const Ops inlineOps;
    template <typename D> static const Ops heapOps;

    /** Move @p other's target into this raw object. */
    void
    takeFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ == nullptr)
            return;
        if (ops_->relocate == nullptr) {
            // A loop of word copies stays inline; a memcpy call of a
            // runtime size does not.
            for (std::size_t i = 0; i < ops_->size; i += wordBytes)
                std::memcpy(buf_ + i, other.buf_ + i, wordBytes);
        } else {
            ops_->relocate(&other, this);
        }
        other.ops_ = nullptr;
    }

    void
    destroy()
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(this);
            ops_ = nullptr;
        }
    }

    union
    {
        alignas(std::max_align_t) unsigned char buf_[InlineSize];
        void *ptr_;
    };
    const Ops *ops_ = nullptr;
};

template <typename R, typename... Args, std::size_t InlineSize>
template <typename D>
const typename InlineFunction<R(Args...), InlineSize>::Ops
    InlineFunction<R(Args...), InlineSize>::inlineOps = {
        // invoke
        [](InlineFunction *self, Args &&...args) -> R {
            return (*self->template inlineTarget<D>())(
                std::forward<Args>(args)...);
        },
        // relocate: move-construct into dst's buffer, destroy src;
        // a trivial target's bytes are copied instead.
        trivialTarget<D>
            ? nullptr
            : +[](InlineFunction *src, InlineFunction *dst) {
                  D *s = src->template inlineTarget<D>();
                  ::new (static_cast<void *>(dst->buf_))
                      D(std::move(*s));
                  s->~D();
              },
        // destroy
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](InlineFunction *self) {
                  self->template inlineTarget<D>()->~D();
              },
        stateBytes<D>,
};

template <typename R, typename... Args, std::size_t InlineSize>
template <typename D>
const typename InlineFunction<R(Args...), InlineSize>::Ops
    InlineFunction<R(Args...), InlineSize>::heapOps = {
        [](InlineFunction *self, Args &&...args) -> R {
            return (*static_cast<D *>(self->ptr_))(
                std::forward<Args>(args)...);
        },
        // relocate: ownership of the heap target moves with the
        // pointer, copied as bytes.
        nullptr,
        [](InlineFunction *self) {
            delete static_cast<D *>(self->ptr_);
        },
        sizeof(void *),
};

} // namespace umany

#endif // UMANY_SIM_INLINE_FUNCTION_HH
