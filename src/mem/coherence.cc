#include "mem/coherence.hh"

namespace umany
{

std::uint64_t
CoherenceModel::migrationBytes(bool same_l2) const
{
    if (same_l2) {
        // The shared L2 retains the warm set; only L1 refill
        // traffic remains, which the L2 absorbs locally.
        return 0;
    }
    return static_cast<std::uint64_t>(
        p_.migrationRefetchFraction *
        static_cast<double>(p_.warmSetBytes));
}

} // namespace umany
