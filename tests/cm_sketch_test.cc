#include "sqlcm/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/value.h"

namespace sqlcm::cm {
namespace {

using common::Value;

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::floor(q * static_cast<double>(values.size() - 1)));
  return values[rank];
}

// The DDSketch guarantee: every estimated quantile is within alpha()
// relative error of the exact rank value.
void ExpectWithinAlpha(const QuantileSketch& sk, double exact, double q) {
  const double est = sk.Quantile(q);
  const double bound = sk.alpha() * std::abs(exact) + 1e-12;
  EXPECT_NEAR(est, exact, bound) << "q=" << q << " alpha=" << sk.alpha();
}

TEST(QuantileSketchTest, EmptyAndSingleton) {
  QuantileSketch sk;
  EXPECT_TRUE(sk.empty());
  EXPECT_EQ(sk.count(), 0);
  EXPECT_EQ(sk.Encode(), "");

  sk.Add(42.0);
  EXPECT_EQ(sk.count(), 1);
  for (const double q : {0.0, 0.5, 1.0}) {
    ExpectWithinAlpha(sk, 42.0, q);
  }
}

TEST(QuantileSketchTest, AccuracyWithinAlphaAcrossSignsAndScales) {
  common::Random rng(101);
  QuantileSketch sk;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Mixed magnitudes, both signs, plus exact zeros.
    double v;
    const uint64_t pick = rng.Uniform(10);
    if (pick == 0) {
      v = 0.0;
    } else if (pick < 6) {
      v = rng.NextDouble() * 1000.0;
    } else {
      v = -std::exp(rng.NextDouble() * 10.0);
    }
    values.push_back(v);
    sk.Add(v);
  }
  ASSERT_EQ(sk.count(), static_cast<int64_t>(values.size()));
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    ExpectWithinAlpha(sk, ExactQuantile(values, q), q);
  }
}

TEST(QuantileSketchTest, NanIsIgnored) {
  QuantileSketch sk;
  sk.Add(std::nan(""));
  EXPECT_TRUE(sk.empty());
  sk.Add(1.0);
  sk.Add(std::nan(""));
  EXPECT_EQ(sk.count(), 1);
  EXPECT_NEAR(sk.Quantile(0.5), 1.0, sk.alpha() + 1e-12);
}

TEST(QuantileSketchTest, MergeMatchesSingleSketchFold) {
  common::Random rng(7);
  QuantileSketch whole, a, b, c;
  for (int i = 0; i < 9000; ++i) {
    const double v = rng.NextDouble() * 200.0 - 100.0;
    whole.Add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Add(v);
  }
  // Merge in two different orders; both must equal the monolithic fold.
  QuantileSketch ab = a;
  ab.Merge(b);
  ab.Merge(c);
  QuantileSketch cb = c;
  cb.Merge(b);
  cb.Merge(a);
  EXPECT_TRUE(ab == cb);
  EXPECT_TRUE(ab == whole);
}

TEST(QuantileSketchTest, MergeAcrossCollapseLevelsStaysWithinCoarserAlpha) {
  common::Random rng(13);
  QuantileSketch fine, coarse;
  std::vector<double> values;
  for (int i = 0; i < 8000; ++i) {
    const double v = std::exp(rng.NextDouble() * 8.0);
    values.push_back(v);
    (i % 2 == 0 ? fine : coarse).Add(v);
  }
  // Force the second sketch up a few levels, then merge the fine one in.
  while (coarse.level() < 3) {
    const int before = coarse.level();
    coarse.CollapseToBudget(coarse.ApproxBytes() / 2);
    if (coarse.level() == before) break;
  }
  ASSERT_GT(coarse.level(), 0);
  coarse.Merge(fine);
  EXPECT_EQ(coarse.count(), static_cast<int64_t>(values.size()));
  for (const double q : {0.1, 0.5, 0.9}) {
    const double exact = ExactQuantile(values, q);
    EXPECT_NEAR(coarse.Quantile(q), exact,
                coarse.alpha() * std::abs(exact) + 1e-12);
  }
}

TEST(QuantileSketchTest, CollapseToBudgetBoundsBytesAndGrowsAlpha) {
  common::Random rng(29);
  QuantileSketch sk;
  for (int i = 0; i < 50000; ++i) {
    sk.Add(std::exp(rng.NextDouble() * 14.0 - 7.0));  // wide dynamic range
  }
  const double alpha_before = sk.alpha();
  const size_t budget = 1024;
  ASSERT_GT(sk.ApproxBytes(), budget);
  const int ups = sk.CollapseToBudget(budget);
  EXPECT_GT(ups, 0);
  EXPECT_LE(sk.ApproxBytes(), budget);
  EXPECT_GT(sk.alpha(), alpha_before);
  EXPECT_EQ(sk.count(), 50000);  // collapse never loses mass
  // Still answers within the (coarser) documented bound.
  EXPECT_GT(sk.Quantile(0.5), 0.0);
  // Unbounded budget is a no-op.
  EXPECT_EQ(sk.CollapseToBudget(0), 0);
}

TEST(QuantileSketchTest, ByteChargeIsFixedPerSketchAndPerBucket) {
  // The budget charge is a fixed 128 bytes plus 48 per bucket, whatever
  // the in-memory layout, so collapse points and reported sketch bytes do
  // not move when the bucket store changes.
  QuantileSketch sk;
  EXPECT_EQ(sk.ApproxBytes(), 128u);
  for (int i = 1; i <= 5; ++i) sk.Add(std::pow(2.0, i));   // 5 buckets
  sk.Add(-1.5);                                            // 1 more
  sk.Add(0.0);                                             // zeros: none
  ASSERT_EQ(sk.bucket_count(), 6u);
  EXPECT_EQ(sk.ApproxBytes(), 128u + 6 * 48u);
  // 1 bucket fits a 176-byte budget exactly; 175 forces level-ups until
  // one bucket per store remains.
  QuantileSketch one;
  one.Add(3.0);
  EXPECT_EQ(one.CollapseToBudget(176), 0);
  QuantileSketch two;
  two.Add(3.0);
  two.Add(300.0);
  EXPECT_GT(two.CollapseToBudget(175), 0);
  EXPECT_EQ(two.bucket_count(), 1u);
}

TEST(QuantileSketchTest, EncodeDecodeRoundTripIsBitExact) {
  common::Random rng(41);
  QuantileSketch sk;
  for (int i = 0; i < 5000; ++i) {
    sk.Add(rng.NextDouble() * 2000.0 - 1000.0);
  }
  sk.Add(0.0);
  sk.CollapseToBudget(2048);
  auto decoded = QuantileSketch::Decode(sk.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == sk);
  EXPECT_EQ(decoded->Encode(), sk.Encode());

  auto empty = QuantileSketch::Decode("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(QuantileSketchTest, DecodeRejectsGarbage) {
  for (const char* bad :
       {"Q2 0 0 0 0", "Q1", "Q1 x 0 0 0", "Q1 0 0 1 0", "Q1 0 0 0 1 i:c",
        "H1 10 00", "nonsense", "Q1 0 0 0 1 5:notanumber"}) {
    EXPECT_FALSE(QuantileSketch::Decode(bad).ok()) << bad;
  }
}

TEST(QuantileSketchTest, SubtractThenMergeReconstructsCurrent) {
  // The federation delta identity: delta = cur − base; base ⊕ delta = cur.
  common::Random rng(53);
  QuantileSketch base;
  for (int i = 0; i < 3000; ++i) base.Add(rng.NextDouble() * 100.0);
  QuantileSketch cur = base;
  for (int i = 0; i < 3000; ++i) cur.Add(rng.NextDouble() * 100.0 - 50.0);
  cur.CollapseToBudget(4096);

  QuantileSketch delta = cur;
  delta.Subtract(base);
  EXPECT_EQ(delta.count(), cur.count() - base.count());

  QuantileSketch rebuilt = base;
  rebuilt.Merge(delta);
  EXPECT_TRUE(rebuilt == cur);
}

TEST(HllSketchTest, LinearCountingIsExactForSmallSets) {
  HllSketch hll(12);
  EXPECT_EQ(hll.Estimate(), 0);
  for (int i = 0; i < 200; ++i) {
    hll.AddHash(DistinctValueHash(Value::Int(i)));
  }
  // Duplicates are no-ops.
  for (int i = 0; i < 200; ++i) {
    hll.AddHash(DistinctValueHash(Value::Int(i)));
  }
  EXPECT_EQ(hll.Estimate(), 200);
}

TEST(HllSketchTest, EstimateWithinStandardErrorBound) {
  HllSketch hll;  // default precision
  const int64_t n = 50000;
  for (int64_t i = 0; i < n; ++i) {
    hll.AddHash(DistinctValueHash(Value::String("v" + std::to_string(i))));
  }
  const double err =
      std::abs(static_cast<double>(hll.Estimate() - n)) / static_cast<double>(n);
  EXPECT_LT(err, 4.0 * hll.StandardError());
}

TEST(HllSketchTest, MergeIsIdempotentAndOrderFree) {
  HllSketch a(10), b(10);
  for (int i = 0; i < 5000; ++i) {
    (i % 2 == 0 ? a : b).AddHash(DistinctValueHash(Value::Int(i)));
  }
  HllSketch ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  HllSketch ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  EXPECT_TRUE(ab == ba);
  // Duplicate delivery (the fed retry path) must not move the estimate.
  HllSketch twice = ab;
  ASSERT_TRUE(twice.Merge(a).ok());
  ASSERT_TRUE(twice.Merge(b).ok());
  ASSERT_TRUE(twice.Merge(ab).ok());
  EXPECT_TRUE(twice == ab);
}

TEST(HllSketchTest, MergeRejectsPrecisionMismatch) {
  HllSketch a(10), b(12);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HllSketchTest, EncodeDecodeRoundTrip) {
  HllSketch hll(8);
  for (int i = 0; i < 3000; ++i) {
    hll.AddHash(DistinctValueHash(Value::Double(i * 0.5)));
  }
  auto decoded = HllSketch::Decode(hll.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == hll);
  EXPECT_EQ(decoded->Estimate(), hll.Estimate());

  // All-zero registers encode to "" and decode back to an empty sketch.
  HllSketch fresh(8);
  EXPECT_EQ(fresh.Encode(), "");
  auto empty = HllSketch::Decode("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->Estimate(), 0);
}

TEST(HllSketchTest, DecodeRejectsGarbage) {
  for (const char* bad :
       {"H2 10 00", "H1", "H1 3 00", "H1 10", "H1 10 zz", "Q1 0 0 0 0",
        "H1 10 0"}) {
    EXPECT_FALSE(HllSketch::Decode(bad).ok()) << bad;
  }
}

TEST(HllSketchTest, PrecisionClampedToValidRange) {
  EXPECT_EQ(HllSketch(1).precision(), 4);
  EXPECT_EQ(HllSketch(99).precision(), 16);
  EXPECT_EQ(HllSketch(1).register_count(), 16u);
}

TEST(DistinctValueHashTest, NumericEqualityMatchesValueCompare) {
  // 2 and 2.0 are equal under Value::Compare, so they must hash equal; the
  // two zero doubles likewise.
  EXPECT_EQ(DistinctValueHash(Value::Int(2)), DistinctValueHash(Value::Double(2.0)));
  EXPECT_EQ(DistinctValueHash(Value::Double(-0.0)),
            DistinctValueHash(Value::Double(0.0)));
  EXPECT_NE(DistinctValueHash(Value::Double(2.5)), DistinctValueHash(Value::Int(2)));
  EXPECT_NE(DistinctValueHash(Value::Int(2)), DistinctValueHash(Value::String("2")));
  EXPECT_NE(DistinctValueHash(Value::Bool(true)), DistinctValueHash(Value::Int(1)));
}

TEST(DistinctValueHashTest, DeterministicAndWellSpread) {
  EXPECT_EQ(DistinctValueHash(Value::String("abc")),
            DistinctValueHash(Value::String("abc")));
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(DistinctValueHash(Value::Int(i)));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace sqlcm::cm
