/**
 * @file
 * ObjectPool: a free list of heap objects that their owner recycles,
 * so a steady state of acquire and release never reaches the
 * allocator.
 *
 * The pool owns every object it ever handed out; a released object
 * keeps its memory, and whatever capacity its members hold, until
 * the pool dies. Under AddressSanitizer a released object is
 * poisoned until it is reused, so a read through a stale pointer
 * still aborts, as it did when released objects were deleted.
 *
 * A pool belongs to the simulator object that uses it. It is never
 * static or thread-local, so sweep points on different threads
 * share none, and it grows on demand, so building its owner costs
 * nothing.
 */

#ifndef UMANY_SIM_OBJECT_POOL_HH
#define UMANY_SIM_OBJECT_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace umany
{

template <typename T>
class ObjectPool
{
  public:
    ObjectPool() = default;
    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    ~ObjectPool()
    {
        // The owning pointers below destroy every object, released
        // ones included.
        for (T *p : free_)
            unpoison(p);
    }

    /**
     * A released object, unpoisoned and otherwise exactly as it was
     * released (the caller resets it), or nullptr when none is free.
     */
    T *
    reuse()
    {
        if (free_.empty())
            return nullptr;
        T *p = free_.back();
        free_.pop_back();
        unpoison(p);
        return p;
    }

    /** Grow the pool by @p p, handed out at once. */
    T *
    adopt(std::unique_ptr<T> p)
    {
        owned_.push_back(std::move(p));
        return owned_.back().get();
    }

    /** Take back @p p (handed out by this pool) for reuse. */
    void
    release(T *p)
    {
        free_.push_back(p);
        poison(p);
    }

    /** Objects handed out and not yet released. */
    std::size_t live() const { return owned_.size() - free_.size(); }

  private:
    std::vector<std::unique_ptr<T>> owned_;
    std::vector<T *> free_;

    static void
    poison([[maybe_unused]] T *p)
    {
#ifdef __SANITIZE_ADDRESS__
        ASAN_POISON_MEMORY_REGION(p, sizeof(T));
#endif
    }

    static void
    unpoison([[maybe_unused]] T *p)
    {
#ifdef __SANITIZE_ADDRESS__
        ASAN_UNPOISON_MEMORY_REGION(p, sizeof(T));
#endif
    }
};

} // namespace umany

#endif // UMANY_SIM_OBJECT_POOL_HH
