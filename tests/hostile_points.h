// Points a compromised query server can relay in place of an honest BAS
// signature or aggregate. Each is wrong in a different way; the client must
// reject every one as a verification failure, never abort on it.
#ifndef AUTHDB_TESTS_HOSTILE_POINTS_H_
#define AUTHDB_TESTS_HOSTILE_POINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/ec.h"

namespace authdb {
namespace hostile {

struct NamedPoint {
  std::string name;
  ECPoint point;
};

/// r * X for the first curve point X with r * X != O: a point whose order
/// divides the cofactor, so it lies outside the order-r subgroup.
inline ECPoint CofactorTorsion(const CurveGroup& curve) {
  const PrimeField& f = curve.field();
  for (uint64_t xi = 2;; ++xi) {
    BigInt x = f.FromU64(xi);
    BigInt rhs = curve.CurveRhs(x);
    if (rhs.IsZero() || !f.IsSquare(rhs)) continue;
    ECPoint t = curve.ScalarMult(ECPoint{x, f.Sqrt(rhs), false}, curve.order());
    if (!t.infinity) return t;
  }
}

/// Substitutes for a finite honest point:
///  * (0,0), the order-2 point of y^2 = x^3 + x (it is on the curve);
///  * the honest point with y + 1, off the curve;
///  * the honest point with x + p, a coordinate that is not reduced;
///  * the honest point plus a cofactor-torsion point: on the curve, outside
///    the order-r subgroup.
inline std::vector<NamedPoint> Substitutes(const CurveGroup& curve,
                                           const ECPoint& honest) {
  const PrimeField& f = curve.field();
  return {
      {"order-2 point (0,0)", ECPoint{BigInt(), BigInt(), false}},
      {"off-curve", ECPoint{honest.x, f.Add(honest.y, f.One()), false}},
      {"unreduced x", ECPoint{BigInt::Add(honest.x, f.p()), honest.y, false}},
      {"honest + cofactor torsion", curve.Add(honest, CofactorTorsion(curve))},
  };
}

}  // namespace hostile
}  // namespace authdb

#endif  // AUTHDB_TESTS_HOSTILE_POINTS_H_
