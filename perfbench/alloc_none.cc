#include "alloc.hh"

namespace pb
{

bool
allocsCounted()
{
    return false;
}

std::uint64_t
allocsNow()
{
    return 0;
}

} // namespace pb
