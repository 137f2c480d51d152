#include "sim/calibration.h"

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "crypto/sha.h"

namespace authdb {

namespace {
/// Median-free simple timing: run `fn` `reps` times, return mean seconds.
template <typename Fn>
double TimeIt(int reps, Fn&& fn) {
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) fn(i);
  return sw.ElapsedSeconds() / reps;
}
}  // namespace

CryptoCosts MeasureCryptoCosts(std::shared_ptr<const BasContext> ctx,
                               bool quick) {
  CryptoCosts costs;
  Rng rng(0xCA11B);
  const int reps = quick ? 3 : 10;
  const int agg_n = quick ? 200 : 1000;
  const double agg_scale = 1000.0 / agg_n;

  BasPrivateKey bas_key = BasPrivateKey::Generate(ctx, &rng);
  std::vector<std::string> msgs;
  for (int i = 0; i < agg_n; ++i) msgs.push_back("m" + std::to_string(i));

  costs.bas_sign = TimeIt(reps, [&](int i) {
    bas_key.Sign(Slice(msgs[i % agg_n]), BasContext::HashMode::kSecure);
  });
  costs.hash_to_point = TimeIt(reps, [&](int i) {
    ctx->HashToPoint(Slice(msgs[i % agg_n]), BasContext::HashMode::kSecure);
  });
  BasSignature sig =
      bas_key.Sign(Slice(msgs[0]), BasContext::HashMode::kSecure);
  costs.bas_verify = TimeIt(reps, [&](int) {
    bas_key.public_key().Verify(Slice(msgs[0]), sig,
                                BasContext::HashMode::kSecure);
  });
  costs.pairing = TimeIt(reps, [&](int) {
    ctx->pairing().Pair(ctx->generator(), bas_key.public_key().point());
  });
  std::vector<BasSignature> sigs;
  for (int i = 0; i < agg_n; ++i)
    sigs.push_back(bas_key.Sign(Slice(msgs[i]), BasContext::HashMode::kFast));
  costs.bas_aggregate_1000 =
      TimeIt(reps, [&](int) { ctx->Aggregate(sigs); }) * agg_scale;
  costs.point_add = costs.bas_aggregate_1000 / 1000.0;
  {
    std::vector<Slice> views(msgs.begin(), msgs.end());
    BasSignature agg = ctx->Aggregate(sigs);
    // Fast-mode hashes make this the aggregation-verification lower bound;
    // secure-mode adds agg_n hash-to-point costs on top.
    double fast = TimeIt(1, [&](int) {
      bas_key.public_key().VerifyAggregate(views, agg,
                                           BasContext::HashMode::kFast);
    });
    costs.bas_verify_1000 =
        fast * agg_scale + 1000.0 * costs.hash_to_point;
  }

  RsaPrivateKey rsa_key = RsaPrivateKey::Generate(1024, &rng);
  costs.rsa_sign =
      TimeIt(reps, [&](int i) { rsa_key.Sign(Slice(msgs[i % agg_n])); });
  RsaSignature rsig = rsa_key.Sign(Slice(msgs[0]));
  costs.rsa_verify = TimeIt(reps, [&](int) {
    rsa_key.public_key().Verify(Slice(msgs[0]), rsig);
  });
  std::vector<RsaSignature> rsigs;
  for (int i = 0; i < agg_n; ++i) rsigs.push_back(rsa_key.Sign(Slice(msgs[i])));
  costs.rsa_aggregate_1000 =
      TimeIt(1, [&](int) { rsa_key.public_key().Aggregate(rsigs); }) *
      agg_scale;
  {
    std::vector<Slice> views(msgs.begin(), msgs.end());
    RsaSignature ragg = rsa_key.public_key().Aggregate(rsigs);
    costs.rsa_verify_1000 =
        TimeIt(1, [&](int) {
          rsa_key.public_key().VerifyCondensed(views, ragg);
        }) *
        agg_scale;
  }

  std::string m256(256, 'x'), m512(512, 'x'), m1024(1024, 'x');
  const int sha_reps = quick ? 2000 : 20000;
  costs.sha_256b = TimeIt(sha_reps, [&](int) { Sha1::Hash(Slice(m256)); });
  costs.sha_512b = TimeIt(sha_reps, [&](int) { Sha1::Hash(Slice(m512)); });
  costs.sha_1024b = TimeIt(sha_reps, [&](int) { Sha1::Hash(Slice(m1024)); });
  return costs;
}

}  // namespace authdb
