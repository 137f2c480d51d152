#ifndef AUTHDB_CRYPTO_PAIRING_H_
#define AUTHDB_CRYPTO_PAIRING_H_

#include <cstddef>

#include "crypto/ec.h"
#include "crypto/fp2.h"

namespace authdb {

/// Reduced Tate pairing with distortion map on the supersingular curve
/// y^2 = x^3 + x over F_p, p = 3 (mod 4):
///
///   e(P, Q) = f_{r,P}( psi(Q) )^((p^2-1)/r),   psi(x, y) = (-x, i*y).
///
/// Both arguments are points in the prime-order-r subgroup of E(F_p); the
/// result lives in the order-r subgroup mu_r of F_p^2*. This is the pairing
/// underlying the Bilinear Aggregate Signature scheme (BAS, Boneh et al.)
/// adopted by the paper.
///
/// The Miller loop runs T in Jacobian coordinates and does no field
/// inversion. Every line value it multiplies in is the affine line value
/// times a nonzero F_p factor, and so are the line denominators and
/// vertical lines it skips (denominator elimination). The embedding degree
/// is 2, so the final exponentiation (p^2-1)/r = (p-1) * cofactor maps
/// every F_p* factor to 1: the values equal the affine loop's.
///
/// Verification uses PairingsEqual, which decides e(a,b) == e(c,d) with
/// one Miller loop over both pairs and one final exponentiation.
class TatePairing {
 public:
  /// The curve must have been constructed with a=1, b=0 and cofactor
  /// c = (p+1)/r.
  explicit TatePairing(const CurveGroup* curve);

  /// Compute e(P, Q). Returns 1 (the Fp2 one) if either point is infinity,
  /// and 0 (no pairing value) if P is off the curve or outside the order-r
  /// subgroup.
  Fp2Elem Pair(const ECPoint& p, const ECPoint& q) const;

  /// The verification predicate e(a, b) == e(c, d), decided as
  /// FE(f_{r,a}(psi b) * f_{r,-c}(psi d)) == 1: the two Miller loops share
  /// their accumulator squarings and one final exponentiation (FE). A pair
  /// with a point at infinity contributes 1. The loop's last step also
  /// proves [r]a = O and [r]c = O, so a first argument that is off the
  /// curve or outside the order-r subgroup makes the check false. The
  /// second arguments must be subgroup points (the generator, a public key).
  bool PairingsEqual(const ECPoint& a, const ECPoint& b, const ECPoint& c,
                     const ECPoint& d) const;

  /// Pairing-value equality.
  bool Equal(const Fp2Elem& a, const Fp2Elem& b) const {
    return fp2_.Equal(a, b);
  }

  const Fp2Field& fp2() const { return fp2_; }

 private:
  struct MillerArg {
    const ECPoint* p;
    const ECPoint* q;
  };

  /// f = prod_k f_{r,P_k}(psi(Q_k)) up to an F_p* factor, with one shared
  /// accumulator squaring per bit of r. Returns false, leaving f unset, if
  /// some finite P_k is off the curve or [r]P_k != O.
  bool MillerLoop(const MillerArg* args, size_t n, Fp2Elem* f) const;

  /// f^((p^2-1)/r) = (conj(f)/f)^cofactor.
  Fp2Elem FinalExponentiation(const Fp2Elem& f) const;

  const CurveGroup* curve_;
  Fp2Field fp2_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_PAIRING_H_
