#include "crypto/pairing.h"

#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "crypto/bas.h"
#include "hostile_points.h"

namespace authdb {
namespace {

class PairingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(777);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(/*p_bits=*/96, /*r_bits=*/64, &rng));
  }
  const CurveGroup& curve() { return (*ctx_)->curve(); }
  const TatePairing& e() { return (*ctx_)->pairing(); }
  const Fp2Field& fp2() { return (*ctx_)->pairing().fp2(); }
  const ECPoint& G() { return (*ctx_)->generator(); }
  static std::shared_ptr<const BasContext>* ctx_;
};
std::shared_ptr<const BasContext>* PairingTest::ctx_ = nullptr;

TEST_F(PairingTest, NonDegenerate) {
  Fp2Elem v = e().Pair(G(), G());
  EXPECT_FALSE(fp2().Equal(v, fp2().One()));
  EXPECT_FALSE(fp2().IsZero(v));
}

TEST_F(PairingTest, InfinityPairsToOne) {
  EXPECT_TRUE(fp2().Equal(e().Pair(ECPoint{}, G()), fp2().One()));
  EXPECT_TRUE(fp2().Equal(e().Pair(G(), ECPoint{}), fp2().One()));
}

TEST_F(PairingTest, PairingValueHasOrderR) {
  Fp2Elem v = e().Pair(G(), G());
  EXPECT_TRUE(fp2().Equal(fp2().Exp(v, curve().order()), fp2().One()));
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    uint64_t a = 2 + rng.Uniform(1u << 20);
    ECPoint aG = curve().ScalarMult(G(), BigInt(a));
    Fp2Elem lhs = e().Pair(aG, G());
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), BigInt(a));
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << "a=" << a;
  }
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  Rng rng(2);
  for (int i = 0; i < 8; ++i) {
    uint64_t b = 2 + rng.Uniform(1u << 20);
    ECPoint bG = curve().ScalarMult(G(), BigInt(b));
    Fp2Elem lhs = e().Pair(G(), bG);
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), BigInt(b));
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << "b=" << b;
  }
}

TEST_F(PairingTest, FullBilinearity) {
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    uint64_t a = 2 + rng.Uniform(1u << 16);
    uint64_t b = 2 + rng.Uniform(1u << 16);
    ECPoint aG = curve().ScalarMult(G(), BigInt(a));
    ECPoint bG = curve().ScalarMult(G(), BigInt(b));
    Fp2Elem lhs = e().Pair(aG, bG);
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), BigInt(a * b));
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << a << " " << b;
  }
}

TEST_F(PairingTest, MultiplicativeInFirstArgument) {
  // e(P+Q, R) == e(P,R) * e(Q,R)
  Rng rng(4);
  ECPoint P = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  ECPoint Q = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  ECPoint R = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  Fp2Elem lhs = e().Pair(curve().Add(P, Q), R);
  Fp2Elem rhs = fp2().Mul(e().Pair(P, R), e().Pair(Q, R));
  EXPECT_TRUE(fp2().Equal(lhs, rhs));
}

TEST_F(PairingTest, NegationInvertsPairing) {
  ECPoint P = curve().ScalarMult(G(), BigInt(123));
  Fp2Elem v = e().Pair(P, G());
  Fp2Elem vn = e().Pair(curve().Negate(P), G());
  EXPECT_TRUE(fp2().Equal(fp2().Mul(v, vn), fp2().One()));
}

TEST_F(PairingTest, PairingsEqualAgreesWithPairValues) {
  // Honest tuples (e(xG, yG) == e(xyG, G) and == e(yG, xG)) and dishonest
  // ones (perturbed scalars): the one-exponentiation product check must
  // give the verdict of comparing the two full pairings.
  Rng rng(6);
  const BigInt& r = curve().order();
  for (int i = 0; i < 6; ++i) {
    BigInt x = BigInt::RandomBelow(r, &rng);
    BigInt y = BigInt::RandomBelow(r, &rng);
    ECPoint xG = curve().ScalarMult(G(), x);
    ECPoint yG = curve().ScalarMult(G(), y);
    ECPoint xyG = curve().ScalarMult(xG, y);
    ECPoint zG = curve().ScalarMult(G(), BigInt::RandomBelow(r, &rng));
    auto check = [&](const ECPoint& a, const ECPoint& b, const ECPoint& c,
                     const ECPoint& d, bool want) {
      bool pair_equal = e().Equal(e().Pair(a, b), e().Pair(c, d));
      EXPECT_EQ(pair_equal, want);
      EXPECT_EQ(e().PairingsEqual(a, b, c, d), pair_equal);
    };
    check(xG, yG, xyG, G(), true);
    check(xG, yG, yG, xG, true);
    check(xyG, G(), xG, yG, true);
    check(G(), G(), G(), G(), true);
    check(xG, yG, zG, G(), false);
    check(xG, zG, xyG, G(), false);
  }
}

TEST_F(PairingTest, PairingsEqualInfinityPairsContributeOne) {
  ECPoint hG = curve().ScalarMult(G(), BigInt(12345));
  ECPoint pk = curve().ScalarMult(G(), BigInt(777));
  // sigma = O against a nonzero hash sum is rejected; both O is accepted.
  EXPECT_FALSE(e().PairingsEqual(ECPoint{}, G(), hG, pk));
  EXPECT_FALSE(e().PairingsEqual(hG, pk, ECPoint{}, G()));
  EXPECT_TRUE(e().PairingsEqual(ECPoint{}, G(), ECPoint{}, pk));
  EXPECT_TRUE(e().PairingsEqual(hG, ECPoint{}, ECPoint{}, pk));
}

TEST_F(PairingTest, HostileFirstArgumentsFailWithoutAbort) {
  // The loop's closing step proves [r]P = O, so a first argument that is
  // off the curve or outside the order-r subgroup fails the check (and
  // Pair returns 0, which is no pairing value) instead of aborting.
  ECPoint sigma = curve().ScalarMult(G(), BigInt(4242));
  ECPoint pk = curve().ScalarMult(G(), BigInt(99));
  ECPoint h = curve().ScalarMult(G(), BigInt(4242 * 99));
  ASSERT_TRUE(e().PairingsEqual(sigma, pk, h, G()));
  for (const auto& bad : hostile::Substitutes(curve(), sigma)) {
    SCOPED_TRACE(bad.name);
    EXPECT_FALSE(e().PairingsEqual(bad.point, pk, h, G()));
    EXPECT_FALSE(e().PairingsEqual(h, G(), bad.point, pk));
    EXPECT_TRUE(fp2().IsZero(e().Pair(bad.point, G())));
  }
}

// Known answers on the deployed parameters: pins the reduced pairing's
// values, so a Miller-loop rewrite that changes any pairing value (not just
// one that breaks bilinearity) fails here. Captured from the affine Miller
// loop with one inversion per step.
TEST(PairingKnownAnswerTest, DefaultParameters) {
  std::shared_ptr<const BasContext> ctx = BasContext::Default();
  const CurveGroup& curve = ctx->curve();
  const PrimeField& f = curve.field();
  auto hex = [&](const Fp2Elem& v) {
    return f.ToPlain(v.re).ToHex() + "," + f.ToPlain(v.im).ToHex();
  };
  const ECPoint& G = ctx->generator();
  EXPECT_EQ(hex(ctx->pairing().Pair(G, G)),
            "4a5aaf23229faf9e63d29552c37976e401c6630b52660b30961dda03bd61b72,"
            "8b62dc5736c891018b1fffa7e7b729399f75c27f32b2849168fe050d08e0249b");
  ECPoint aG = curve.ScalarMult(
      G, BigInt::FromHex("1234567890abcdef1234567890abcdef"));
  ECPoint bG = curve.ScalarMult(
      G, BigInt::FromHex("fedcba0987654321fedcba0987654321"));
  EXPECT_EQ(hex(ctx->pairing().Pair(aG, bG)),
            "5527291739081ba5f3b6b9c43ffa84f096aeefda30955ecb49cf2261046f5dd8,"
            "852dec198797b01dab2bc6aac462e5da7fdbc1ad18155bc234552120a6331d21");
}

TEST(Fp2FieldTest, FieldAxioms) {
  Rng rng(5);
  BigInt p = BigInt::GeneratePrime(96, &rng);
  while (BigInt::Mod(p, BigInt(4)).ToU64() != 3)
    p = BigInt::GeneratePrime(96, &rng);
  PrimeField fp(p);
  Fp2Field f2(&fp);
  for (int i = 0; i < 30; ++i) {
    Fp2Elem a = f2.Make(fp.FromPlain(BigInt::RandomBelow(p, &rng)),
                        fp.FromPlain(BigInt::RandomBelow(p, &rng)));
    Fp2Elem b = f2.Make(fp.FromPlain(BigInt::RandomBelow(p, &rng)),
                        fp.FromPlain(BigInt::RandomBelow(p, &rng)));
    // Multiplication commutes; Sqr matches Mul.
    EXPECT_TRUE(f2.Equal(f2.Mul(a, b), f2.Mul(b, a)));
    EXPECT_TRUE(f2.Equal(f2.Sqr(a), f2.Mul(a, a)));
    // Inverse.
    if (!f2.IsZero(a)) {
      EXPECT_TRUE(f2.Equal(f2.Mul(a, f2.Inv(a)), f2.One()));
    }
    // Conjugation is multiplicative.
    EXPECT_TRUE(
        f2.Equal(f2.Conj(f2.Mul(a, b)), f2.Mul(f2.Conj(a), f2.Conj(b))));
    // Norm a * conj(a) is in F_p (imaginary part zero).
    Fp2Elem norm = f2.Mul(a, f2.Conj(a));
    EXPECT_TRUE(norm.im.IsZero());
  }
}

}  // namespace
}  // namespace authdb
