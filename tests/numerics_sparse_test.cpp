#include "numerics/sparse.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "numerics/ordering.h"

namespace viaduct {
namespace {

TEST(TripletMatrix, AddAndBounds) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(2, 1, -2.0);
  EXPECT_EQ(t.entryCount(), 2u);
  EXPECT_THROW(t.add(3, 0, 1.0), PreconditionError);
  EXPECT_THROW(t.add(0, -1, 1.0), PreconditionError);
}

TEST(TripletMatrix, StampConductance) {
  TripletMatrix t(2, 2);
  t.stampConductance(0, 1, 2.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_NEAR(m.at(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(m.at(1, 1), 2.0, 1e-14);
  EXPECT_NEAR(m.at(0, 1), -2.0, 1e-14);
  EXPECT_NEAR(m.at(1, 0), -2.0, 1e-14);
}

TEST(TripletMatrix, StampConductanceToGround) {
  TripletMatrix t(2, 2);
  t.stampConductance(1, -1, 3.0);  // branch to an eliminated node
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_NEAR(m.at(1, 1), 3.0, 1e-14);
  EXPECT_NEAR(m.at(0, 0), 0.0, 1e-14);
}

TEST(CsrMatrix, DuplicatesSummed) {
  TripletMatrix t(2, 2);
  t.add(0, 1, 1.5);
  t.add(0, 1, 2.5);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_EQ(m.nonZeroCount(), 1u);
  EXPECT_NEAR(m.at(0, 1), 4.0, 1e-14);
}

TEST(CsrMatrix, ColumnsSortedWithinRows) {
  TripletMatrix t(1, 5);
  t.add(0, 4, 4.0);
  t.add(0, 1, 1.0);
  t.add(0, 3, 3.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const auto ci = m.colIndices();
  EXPECT_TRUE(std::is_sorted(ci.begin(), ci.end()));
}

TEST(CsrMatrix, Multiply) {
  TripletMatrix t(2, 3);
  t.add(0, 0, 1.0);
  t.add(0, 2, 2.0);
  t.add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_NEAR(y[0], 7.0, 1e-14);
  EXPECT_NEAR(y[1], 6.0, 1e-14);
}

TEST(CsrMatrix, MultiplyAddScales) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 1.0};
  std::vector<double> y = {10.0, 10.0};
  m.multiplyAdd(x, y, -0.5);
  EXPECT_NEAR(y[0], 9.0, 1e-14);
  EXPECT_NEAR(y[1], 9.0, 1e-14);
}

TEST(CsrMatrix, AtAndValueIndex) {
  TripletMatrix t(3, 3);
  t.add(1, 2, 5.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_EQ(m.at(2, 1), 0.0);
  EXPECT_GE(m.valueIndex(1, 2), 0);
  EXPECT_EQ(m.valueIndex(0, 0), -1);
}

TEST(CsrMatrix, DiagonalExtraction) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(2, 2, 3.0);
  t.add(0, 1, 9.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const auto d = m.diagonal();
  EXPECT_EQ(d[0], 1.0);
  EXPECT_EQ(d[1], 0.0);
  EXPECT_EQ(d[2], 3.0);
}

TEST(CsrMatrix, SymmetryCheck) {
  TripletMatrix t(2, 2);
  t.stampConductance(0, 1, 1.0);
  EXPECT_TRUE(CsrMatrix::fromTriplets(t).isSymmetric());
  TripletMatrix t2(2, 2);
  t2.add(0, 1, 1.0);
  EXPECT_FALSE(CsrMatrix::fromTriplets(t2).isSymmetric());
}

TEST(CsrMatrix, ResidualNorm) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_NEAR(m.residualNorm(x, b), 0.0, 1e-14);
  const std::vector<double> b2 = {2.0, 2.0};
  EXPECT_NEAR(m.residualNorm(x, b2), 1.0, 1e-14);
}

TEST(VectorKernels, DotNormAxpy) {
  std::vector<double> a = {1.0, 2.0, 2.0};
  std::vector<double> b = {3.0, 0.0, 4.0};
  EXPECT_NEAR(dot(a, b), 11.0, 1e-14);
  EXPECT_NEAR(norm2(a), 3.0, 1e-14);
  axpy(2.0, a, b);
  EXPECT_NEAR(b[0], 5.0, 1e-14);
}

TEST(VectorKernels, ChunkedReductionsArePoolSizeInvariant) {
  // Several kVectorOpGrain chunks plus a ragged tail: the serial (nullptr)
  // and pooled kernels must agree bit for bit, which is what keeps the
  // CG iterate sequence independent of the thread count.
  const std::size_t n = 3 * static_cast<std::size_t>(kVectorOpGrain) + 17;
  Rng rng(61);
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const double dotSerial = dot(a, b);
  const double normSerial = norm2(a);
  std::vector<double> ySerial = b;
  axpy(0.37, a, ySerial);
  for (const int threads : {1, 2, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(dot(a, b, &pool), dotSerial) << threads << " threads";
    EXPECT_EQ(norm2(a, &pool), normSerial) << threads << " threads";
    std::vector<double> y = b;
    axpy(0.37, a, y, &pool);
    EXPECT_EQ(y, ySerial) << threads << " threads";
  }
}

TEST(Ordering, IdentityIsValid) {
  const Ordering o = Ordering::identity(5);
  EXPECT_TRUE(o.isValid());
}

TEST(Ordering, RcmReducesBandwidthOnShuffledPath) {
  // A path graph numbered randomly has large bandwidth; RCM restores ~1.
  const Index n = 64;
  Rng rng(87);
  std::vector<Index> label(n);
  for (Index i = 0; i < n; ++i) label[i] = i;
  for (Index i = n - 1; i > 0; --i)
    std::swap(label[i], label[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
  TripletMatrix t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(label[i], label[i + 1], -1.0);
    t.add(label[i + 1], label[i], -1.0);
  }
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  EXPECT_TRUE(o.isValid());
  const CsrMatrix p = permuteSymmetric(a, o);
  EXPECT_LE(bandwidth(p), 2);
  EXPECT_GE(bandwidth(a), 4);
}

TEST(Ordering, PermuteVectorRoundTrip) {
  TripletMatrix t(4, 4);
  for (Index i = 0; i < 4; ++i) t.add(i, i, 1.0);
  t.stampConductance(0, 3, 1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const auto p = permuteVector(v, o);
  const auto back = unpermuteVector(p, o);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], v[i]);
}

TEST(Ordering, HandlesDisconnectedComponents) {
  TripletMatrix t(6, 6);
  for (Index i = 0; i < 6; ++i) t.add(i, i, 1.0);
  t.stampConductance(0, 1, 1.0);
  t.stampConductance(3, 4, 1.0);  // nodes 2 and 5 isolated
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  EXPECT_TRUE(o.isValid());
}

}  // namespace
}  // namespace viaduct
