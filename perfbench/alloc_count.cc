#include "alloc.hh"

#include <cstdlib>
#include <new>

namespace pb
{

namespace
{

// One thread runs the simulation; a plain counter is enough.
std::uint64_t allocCount = 0;

} // namespace

bool
allocsCounted()
{
    return true;
}

std::uint64_t
allocsNow()
{
    return allocCount;
}

} // namespace pb

void *
operator new(std::size_t size)
{
    ++pb::allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
