#include "crypto/ec.h"

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace authdb {

CurveGroup::CurveGroup(const BigInt& p, uint64_t a, uint64_t b,
                       const BigInt& order_r, const BigInt& cofactor)
    : fp_(std::make_shared<PrimeField>(p)),
      a_(fp_->FromU64(a)),
      b_(fp_->FromU64(b)),
      r_(order_r),
      cofactor_(cofactor) {}

BigInt CurveGroup::CurveRhs(const BigInt& x) const {
  const PrimeField& f = *fp_;
  BigInt x3 = f.Mul(f.Sqr(x), x);
  return f.Add(f.Add(x3, f.Mul(a_, x)), b_);
}

bool CurveGroup::IsOnCurve(const ECPoint& pt) const {
  if (pt.infinity) return true;
  // Unreduced coordinates are not field elements (and would overrun the
  // Montgomery product's buffer).
  if (BigInt::Compare(pt.x, fp_->p()) >= 0 ||
      BigInt::Compare(pt.y, fp_->p()) >= 0)
    return false;
  return fp_->Equal(fp_->Sqr(pt.y), CurveRhs(pt.x));
}

bool CurveGroup::Equal(const ECPoint& p1, const ECPoint& p2) const {
  if (p1.infinity || p2.infinity) return p1.infinity == p2.infinity;
  return fp_->Equal(p1.x, p2.x) && fp_->Equal(p1.y, p2.y);
}

ECPoint CurveGroup::Negate(const ECPoint& p) const {
  if (p.infinity) return p;
  return ECPoint{p.x, fp_->Neg(p.y), false};
}

CurveGroup::Jacobian CurveGroup::ToJacobian(const ECPoint& p) const {
  if (p.infinity) return Jacobian{fp_->One(), fp_->One(), BigInt()};
  return Jacobian{p.x, p.y, fp_->One()};
}

ECPoint CurveGroup::ToAffine(const Jacobian& j) const {
  if (JacIsInfinity(j)) return ECPoint{};
  const PrimeField& f = *fp_;
  BigInt zi = f.Inv(j.Z);
  BigInt zi2 = f.Sqr(zi);
  ECPoint out;
  out.infinity = false;
  out.x = f.Mul(j.X, zi2);
  out.y = f.Mul(j.Y, f.Mul(zi2, zi));
  return out;
}

std::vector<ECPoint> CurveGroup::ToAffineBatch(
    const std::vector<Jacobian>& js) const {
  const PrimeField& f = *fp_;
  std::vector<ECPoint> out(js.size());
  // Montgomery's trick: prefix-multiply the finite Zs, invert the single
  // running product, then peel per-element inverses off backwards.
  std::vector<size_t> finite;
  std::vector<BigInt> prefix;  // prefix[k] = Z_{finite[0]} * ... * Z_{finite[k]}
  finite.reserve(js.size());
  prefix.reserve(js.size());
  BigInt running = f.One();
  for (size_t i = 0; i < js.size(); ++i) {
    if (JacIsInfinity(js[i])) continue;  // out[i] stays the infinity point
    running = f.Mul(running, js[i].Z);
    finite.push_back(i);
    prefix.push_back(running);
  }
  if (finite.empty()) return out;
  BigInt inv = f.Inv(running);  // the batch's one inversion
  for (size_t k = finite.size(); k-- > 0;) {
    size_t i = finite[k];
    BigInt zi = k == 0 ? inv : f.Mul(inv, prefix[k - 1]);
    inv = f.Mul(inv, js[i].Z);  // running inverse of the shorter prefix
    BigInt zi2 = f.Sqr(zi);
    out[i].infinity = false;
    out[i].x = f.Mul(js[i].X, zi2);
    out[i].y = f.Mul(js[i].Y, f.Mul(zi2, zi));
  }
  return out;
}

CurveGroup::Jacobian CurveGroup::JacDouble(const Jacobian& p) const {
  const PrimeField& f = *fp_;
  if (JacIsInfinity(p) || p.Y.IsZero())
    return Jacobian{f.One(), f.One(), BigInt()};
  BigInt y2 = f.Sqr(p.Y);
  BigInt s = f.Mul(f.FromU64(4), f.Mul(p.X, y2));
  BigInt z2 = f.Sqr(p.Z);
  BigInt m = f.Add(f.Mul(f.FromU64(3), f.Sqr(p.X)), f.Mul(a_, f.Sqr(z2)));
  BigInt x3 = f.Sub(f.Sqr(m), f.Dbl(s));
  BigInt y3 = f.Sub(f.Mul(m, f.Sub(s, x3)), f.Mul(f.FromU64(8), f.Sqr(y2)));
  BigInt z3 = f.Mul(f.Dbl(p.Y), p.Z);
  return Jacobian{x3, y3, z3};
}

CurveGroup::Jacobian CurveGroup::JacAdd(const Jacobian& p,
                                        const Jacobian& q) const {
  const PrimeField& f = *fp_;
  if (JacIsInfinity(p)) return q;
  if (JacIsInfinity(q)) return p;
  BigInt z1z1 = f.Sqr(p.Z);
  BigInt z2z2 = f.Sqr(q.Z);
  BigInt u1 = f.Mul(p.X, z2z2);
  BigInt u2 = f.Mul(q.X, z1z1);
  BigInt s1 = f.Mul(p.Y, f.Mul(q.Z, z2z2));
  BigInt s2 = f.Mul(q.Y, f.Mul(p.Z, z1z1));
  BigInt h = f.Sub(u2, u1);
  BigInt r = f.Sub(s2, s1);
  if (h.IsZero()) {
    if (r.IsZero()) return JacDouble(p);
    return Jacobian{f.One(), f.One(), BigInt()};  // P + (-P) = O
  }
  BigInt hh = f.Sqr(h);
  BigInt hhh = f.Mul(h, hh);
  BigInt v = f.Mul(u1, hh);
  BigInt x3 = f.Sub(f.Sub(f.Sqr(r), hhh), f.Dbl(v));
  BigInt y3 = f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(s1, hhh));
  BigInt z3 = f.Mul(f.Mul(p.Z, q.Z), h);
  return Jacobian{x3, y3, z3};
}

CurveGroup::Jacobian CurveGroup::JacAddAffine(const Jacobian& p,
                                              const ECPoint& q) const {
  const PrimeField& f = *fp_;
  AUTHDB_DCHECK(!q.infinity);
  if (JacIsInfinity(p)) return Jacobian{q.x, q.y, f.One()};
  BigInt z1z1 = f.Sqr(p.Z);
  BigInt u2 = f.Mul(q.x, z1z1);
  BigInt s2 = f.Mul(q.y, f.Mul(p.Z, z1z1));
  BigInt h = f.Sub(u2, p.X);
  BigInt r = f.Sub(s2, p.Y);
  if (h.IsZero()) {
    if (r.IsZero()) return JacDouble(p);
    return Jacobian{f.One(), f.One(), BigInt()};
  }
  BigInt hh = f.Sqr(h);
  BigInt hhh = f.Mul(h, hh);
  BigInt v = f.Mul(p.X, hh);
  BigInt x3 = f.Sub(f.Sub(f.Sqr(r), hhh), f.Dbl(v));
  BigInt y3 = f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(p.Y, hhh));
  BigInt z3 = f.Mul(p.Z, h);
  return Jacobian{x3, y3, z3};
}

ECPoint CurveGroup::Add(const ECPoint& p1, const ECPoint& p2) const {
  if (p1.infinity) return p2;
  if (p2.infinity) return p1;
  return ToAffine(JacAddAffine(ToJacobian(p1), p2));
}

ECPoint CurveGroup::Double(const ECPoint& p) const {
  return ToAffine(JacDouble(ToJacobian(p)));
}

ECPoint CurveGroup::ScalarMult(const ECPoint& p, const BigInt& k) const {
  if (p.infinity || k.IsZero()) return ECPoint{};
  Jacobian acc{fp_->One(), fp_->One(), BigInt()};  // infinity
  for (int i = k.BitLength() - 1; i >= 0; --i) {
    acc = JacDouble(acc);
    if (k.Bit(i)) acc = JacAddAffine(acc, p);
  }
  return ToAffine(acc);
}

ECPoint CurveGroup::Sum(const std::vector<ECPoint>& points) const {
  Jacobian acc{fp_->One(), fp_->One(), BigInt()};
  for (const ECPoint& p : points) {
    if (p.infinity) continue;
    acc = JacAddAffine(acc, p);
  }
  return ToAffine(acc);
}

ECPoint CurveGroup::FindGenerator() const {
  const PrimeField& f = *fp_;
  for (uint64_t xi = 1;; ++xi) {
    BigInt x = f.FromU64(xi);
    BigInt rhs = CurveRhs(x);
    if (!f.IsSquare(rhs) || rhs.IsZero()) continue;
    ECPoint pt{x, f.Sqrt(rhs), false};
    AUTHDB_CHECK(IsOnCurve(pt));
    ECPoint g = ScalarMult(pt, cofactor_);
    if (g.infinity) continue;
    // g has order dividing r; r prime and g != O, so order is exactly r.
    return g;
  }
}

std::vector<uint8_t> CurveGroup::Serialize(const ECPoint& pt) const {
  size_t w = fp_->element_bytes();
  if (pt.infinity) return std::vector<uint8_t>(2 * w, 0);
  std::vector<uint8_t> out = fp_->ToPlain(pt.x).ToBytes(w);
  std::vector<uint8_t> yb = fp_->ToPlain(pt.y).ToBytes(w);
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

ECPoint CurveGroup::Deserialize(const std::vector<uint8_t>& bytes) const {
  size_t w = fp_->element_bytes();
  AUTHDB_CHECK(bytes.size() == 2 * w);
  bool all_zero = true;
  for (uint8_t b : bytes) {
    if (b != 0) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) return ECPoint{};
  ECPoint pt;
  pt.infinity = false;
  pt.x = fp_->FromPlain(BigInt::FromBytes(Slice(bytes.data(), w)));
  pt.y = fp_->FromPlain(BigInt::FromBytes(Slice(bytes.data() + w, w)));
  return pt;
}

}  // namespace authdb
