#include "crypto/pairing.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

TatePairing::TatePairing(const CurveGroup* curve)
    : curve_(curve), fp2_(&curve->field()) {
  // r is an odd prime, so the loop's last step is an addition: the one
  // that closes T = [r-1]P with P (see MillerLoop).
  AUTHDB_CHECK(curve->order().Bit(0));
}

Fp2Elem TatePairing::FinalExponentiation(const Fp2Elem& f) const {
  // (p^2 - 1)/r = (p - 1) * cofactor, since p + 1 = cofactor * r.
  // f^(p-1) = conj(f) / f  (Frobenius is conjugation for p = 3 mod 4).
  Fp2Elem g = fp2_.Mul(fp2_.Conj(f), fp2_.Inv(f));
  return fp2_.Exp(g, curve_->cofactor());
}

bool TatePairing::MillerLoop(const MillerArg* args, size_t n,
                             Fp2Elem* f) const {
  const PrimeField& fp = curve_->field();
  // psi(Q) = (-xq, i*yq). With T = (X, Y, Z) in Jacobian coordinates
  // (x = X/Z^2, y = Y/Z^3), the affine line values at psi(Q) are scaled by
  // an F_p* factor, which the final exponentiation removes:
  //   tangent at T, slope M/Z3 with M = 3X^2 + aZ^4, Z3 = 2YZ, times Z3*Z^2:
  //     [M*(xq*Z^2 + X) - 2Y^2] + i*[yq*Z3*Z^2]
  //   chord through T and P, slope R/Z3 with Z3 = Z*H, times Z3:
  //     [R*(xq + xp) - yp*Z3] + i*[yq*Z3]
  // The imaginary parts are nonzero (Q has odd prime order, so yq != 0),
  // hence line values are never zero.
  std::vector<const MillerArg*> live;
  std::vector<CurveGroup::Jacobian> ts;
  for (size_t k = 0; k < n; ++k) {
    if (args[k].p->infinity || args[k].q->infinity) continue;  // factor 1
    live.push_back(&args[k]);
    ts.push_back(curve_->ToJacobian(*args[k].p));
  }
  Fp2Elem acc = fp2_.One();
  const BigInt& r = curve_->order();
  for (int i = live.empty() ? -1 : r.BitLength() - 2; i >= 0; --i) {
    acc = fp2_.Sqr(acc);
    for (size_t k = 0; k < live.size(); ++k) {
      CurveGroup::Jacobian& t = ts[k];
      const ECPoint& q = *live[k]->q;
      // Y = 0: T has order 2, so [r]P != O for odd r.
      if (t.Y.IsZero()) return false;
      BigInt y2 = fp.Sqr(t.Y);
      BigInt z2 = fp.Sqr(t.Z);
      BigInt x2 = fp.Sqr(t.X);
      BigInt az4 = fp.Mul(curve_->a_mont(), fp.Sqr(z2));
      BigInt m = fp.Add(fp.Add(fp.Dbl(x2), x2), az4);
      BigInt s = fp.Dbl(fp.Dbl(fp.Mul(t.X, y2)));
      BigInt z3 = fp.Mul(fp.Dbl(t.Y), t.Z);
      BigInt re = fp.Sub(fp.Mul(m, fp.Add(fp.Mul(q.x, z2), t.X)), fp.Dbl(y2));
      BigInt im = fp.Mul(fp.Mul(q.y, z3), z2);
      acc = fp2_.Mul(acc, fp2_.Make(re, im));
      BigInt x3 = fp.Sub(fp.Sqr(m), fp.Dbl(s));
      BigInt y4_8 = fp.Dbl(fp.Dbl(fp.Dbl(fp.Sqr(y2))));
      t.Y = fp.Sub(fp.Mul(m, fp.Sub(s, x3)), y4_8);
      t.X = std::move(x3);
      t.Z = std::move(z3);
    }
    if (!r.Bit(i)) continue;
    for (size_t k = 0; k < live.size(); ++k) {
      CurveGroup::Jacobian& t = ts[k];
      const ECPoint& p = *live[k]->p;
      const ECPoint& q = *live[k]->q;
      BigInt z2 = fp.Sqr(t.Z);
      BigInt h = fp.Sub(fp.Mul(p.x, z2), t.X);
      BigInt rr = fp.Sub(fp.Mul(p.y, fp.Mul(t.Z, z2)), t.Y);
      if (h.IsZero()) {
        // T == -P on the last bit: T = [r-1]P, the vertical line is an F_p
        // value (skipped), and [r]P = O proves P is in the order-r
        // subgroup. T == +-P on any earlier bit means P's order is below r.
        if (i != 0 || rr.IsZero()) return false;
        continue;
      }
      if (i == 0) return false;  // [r-1]P != -P, so [r]P != O
      BigInt hh = fp.Sqr(h);
      BigInt hhh = fp.Mul(h, hh);
      BigInt v = fp.Mul(t.X, hh);
      BigInt x3 = fp.Sub(fp.Sub(fp.Sqr(rr), hhh), fp.Dbl(v));
      BigInt z3 = fp.Mul(t.Z, h);
      BigInt re = fp.Sub(fp.Mul(rr, fp.Add(q.x, p.x)), fp.Mul(p.y, z3));
      acc = fp2_.Mul(acc, fp2_.Make(re, fp.Mul(q.y, z3)));
      t.Y = fp.Sub(fp.Mul(rr, fp.Sub(v, x3)), fp.Mul(t.Y, hhh));
      t.X = std::move(x3);
      t.Z = std::move(z3);
    }
  }
  *f = std::move(acc);
  return true;
}

Fp2Elem TatePairing::Pair(const ECPoint& p, const ECPoint& q) const {
  MillerArg arg{&p, &q};
  Fp2Elem f;
  if (!curve_->IsOnCurve(p) || !MillerLoop(&arg, 1, &f)) return fp2_.Zero();
  return FinalExponentiation(f);
}

bool TatePairing::PairingsEqual(const ECPoint& a, const ECPoint& b,
                                const ECPoint& c, const ECPoint& d) const {
  if (!curve_->IsOnCurve(a) || !curve_->IsOnCurve(c)) return false;
  // e(a,b) / e(c,d) = e(a,b) * e(-c,d): one loop, one exponentiation.
  ECPoint neg_c = curve_->Negate(c);
  MillerArg args[] = {{&a, &b}, {&neg_c, &d}};
  Fp2Elem f;
  return MillerLoop(args, 2, &f) &&
         fp2_.Equal(FinalExponentiation(f), fp2_.One());
}

}  // namespace authdb
