#include "nn/bnn.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace cim::nn {
namespace {

TEST(BitVector, SetGetRoundTrip) {
  BitVector b(130);
  b.set(0, true);
  b.set(64, true);
  b.set(129, true);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  b.set(64, false);
  EXPECT_FALSE(b.get(64));
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector b(10);
  EXPECT_THROW(b.set(10, true), std::out_of_range);
  EXPECT_THROW((void)b.get(10), std::out_of_range);
}

TEST(Binarize, SignRule) {
  const std::vector<double> x = {-1.0, 0.0, 0.5, -0.1};
  const auto b = binarize(x);
  EXPECT_FALSE(b.get(0));
  EXPECT_TRUE(b.get(1));  // >= 0 -> +1
  EXPECT_TRUE(b.get(2));
  EXPECT_FALSE(b.get(3));
}

TEST(XnorPopcount, CountsAgreements) {
  BitVector a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i) {
    a.set(i, i % 2 == 0);
    b.set(i, i % 4 < 2);
  }
  // a: 1 0 1 0 1 0 1 0 ; b: 1 1 0 0 1 1 0 0 -> agree at 0,3,4,7.
  EXPECT_EQ(xnor_popcount(a, b), 4u);
}

TEST(XnorPopcount, SelfIsAllOnes) {
  BitVector a(100);
  for (std::size_t i = 0; i < 100; i += 3) a.set(i, true);
  EXPECT_EQ(xnor_popcount(a, a), 100u);
}

TEST(XnorPopcount, TailBitsMasked) {
  BitVector a(65), b(65);  // one bit into the second word
  EXPECT_EQ(xnor_popcount(a, b), 65u);
}

TEST(XnorPopcount, SizeMismatchThrows) {
  BitVector a(8), b(9);
  EXPECT_THROW((void)xnor_popcount(a, b), std::invalid_argument);
}

TEST(BinaryDense, MatchesSignDotProduct) {
  util::Matrix w = {{1.0, -2.0, 0.5}, {-0.1, -0.2, -0.3}};
  BinaryDense layer(w);
  BitVector x(3);
  x.set(0, true);   // +1
  x.set(1, false);  // -1
  x.set(2, true);   // +1
  const auto y = layer.forward(x);
  // Row 0 signs: +1, -1, +1 -> dot = 1 + 1 + 1 = 3.
  EXPECT_EQ(y[0], 3);
  // Row 1 signs: -1, -1, -1 -> dot = -1 + 1 - 1 = -1.
  EXPECT_EQ(y[1], -1);
}

TEST(BinaryDense, OutputRangeBounded) {
  util::Rng rng(3);
  util::Matrix w(4, 64);
  for (auto& v : w.flat()) v = rng.normal(0.0, 1.0);
  BinaryDense layer(w);
  BitVector x(64);
  for (std::size_t i = 0; i < 64; ++i) x.set(i, rng.bernoulli(0.5));
  for (const int y : layer.forward(x)) {
    EXPECT_GE(y, -64);
    EXPECT_LE(y, 64);
  }
}

TEST(BinaryMlp, BeatsChanceOnDigits) {
  // Binarization costs accuracy but must stay far above the 10% chance
  // level for the FeRFET BNN experiment to be meaningful. One training's
  // binarized accuracy spreads widely (median 0.336, sd ~0.056, 1st
  // percentile 0.206 over 400 trainings; ~30% of single trainings land
  // below 0.3), so the claim is made over independent trainings: each one
  // stays above 0.2 and their mean clears 0.3.
  constexpr std::uint64_t kTrainings = 32;
  double sum = 0.0;
  for (std::uint64_t s = 0; s < kTrainings; ++s) {
    util::Rng rng = util::Rng::stream(5, s);
    const auto train = generate_digits(800, rng, 0.05);
    Mlp net({kPixels, 48, kClasses}, rng);
    net.fit(train, 40, 0.05, rng);
    ASSERT_GT(net.accuracy(train), 0.9) << "training " << s;

    const double acc = BinaryMlp(net).accuracy(train);
    EXPECT_GT(acc, 0.2) << "training " << s;
    sum += acc;
  }
  EXPECT_GT(sum / kTrainings, 0.3);
}

TEST(BinaryMlp, PredictInClassRange) {
  util::Rng rng(7);
  Mlp net({kPixels, 16, kClasses}, rng);
  BinaryMlp bnn(net);
  const auto ds = generate_digits(20, rng);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const int p = bnn.predict(ds.features.row(i));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, kClasses);
  }
}

}  // namespace
}  // namespace cim::nn
