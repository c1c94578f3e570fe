// Snapshot serialization for LP objects (DESIGN.md §14).
//
// DynamicRR's checkpoint embeds its warm-start basis so a resumed run
// re-enters the solver with the exact tableau history an uninterrupted run
// would have — vertex selection under degeneracy depends on the starting
// basis, so dropping it would still be *correct* but not bit-identical.
#pragma once

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::lp {

struct WarmStartBasis;

/// Serializes a warm-start basis (possibly empty).
void save_basis(const WarmStartBasis& basis, util::SnapshotWriter& w);
WarmStartBasis load_basis(util::SnapshotReader& r);

}  // namespace mecar::lp
