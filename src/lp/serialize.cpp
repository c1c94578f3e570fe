#include "lp/serialize.h"

#include "lp/revised_simplex.h"
#include "util/snapshot.h"

namespace mecar::lp {

void save_basis(const WarmStartBasis& basis, util::SnapshotWriter& w) {
  w.i32(basis.m);
  w.i32(basis.total_cols);
  w.vec(basis.basis, [&](int b) { w.i32(b); });
  w.vec(basis.at_upper, [&](char u) { w.boolean(u != 0); });
}

WarmStartBasis load_basis(util::SnapshotReader& r) {
  WarmStartBasis basis;
  basis.m = r.i32();
  basis.total_cols = r.i32();
  basis.basis = r.vec<int>([&] { return r.i32(); });
  basis.at_upper =
      r.vec<char>([&] { return static_cast<char>(r.boolean() ? 1 : 0); });
  return basis;
}

}  // namespace mecar::lp
