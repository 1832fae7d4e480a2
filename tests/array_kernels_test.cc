// Tests for the array-manipulation kernels (Transpose, Slice, Concat, Cast,
// Neg, aggregate reductions, Fill, ZerosLike) through the session.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/ops.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

class ArrayKernelTest : public ::testing::Test {
 protected:
  Result<Tensor> Run1(Output out) {
    auto r = rt_.NewSession()->Run({}, {out.name()});
    if (!r.ok()) return r.status();
    return (*r)[0];
  }
  LocalRuntime rt_{1};
};

TEST_F(ArrayKernelTest, TransposeSmall) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(
      s, Tensor::FromVector(Shape{2, 3}, std::vector<double>{1, 2, 3, 4, 5, 6}));
  auto t = Run1(ops::Transpose(s, a));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->shape(), Shape({3, 2}));
  EXPECT_EQ((t->at<double>(0, 1)), 4);
  EXPECT_EQ((t->at<double>(2, 0)), 3);
}

TEST_F(ArrayKernelTest, TransposeInvolution) {
  Scope s = rt_.root_scope();
  Tensor m(DType::kF32, Shape{37, 53});  // odd sizes cross block boundaries
  FillUniform(m, 3);
  auto a = ops::Const(s, m);
  auto tt = Run1(ops::Transpose(s, ops::Transpose(s, a)));
  ASSERT_TRUE(tt.ok());
  EXPECT_TRUE(tt->BitwiseEquals(m));
}

TEST_F(ArrayKernelTest, TransposeRejectsVector) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF32, Shape{4}));
  EXPECT_FALSE(Run1(ops::Transpose(s, a)).ok());
}

TEST_F(ArrayKernelTest, SliceMatrix) {
  Scope s = rt_.root_scope();
  Tensor m(DType::kF64, Shape{4, 4});
  for (int64_t i = 0; i < 16; ++i) {
    m.mutable_data<double>()[i] = static_cast<double>(i);
  }
  auto a = ops::Const(s, m);
  auto sl = Run1(ops::Slice(s, a, Shape{1, 2}, Shape{2, 2}));
  ASSERT_TRUE(sl.ok());
  EXPECT_EQ(sl->shape(), Shape({2, 2}));
  EXPECT_EQ((sl->at<double>(0, 0)), 6);   // m[1][2]
  EXPECT_EQ((sl->at<double>(1, 1)), 11);  // m[2][3]
}

TEST_F(ArrayKernelTest, SliceVectorAndBounds) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{0, 1, 2, 3}));
  auto sl = Run1(ops::Slice(s, a, Shape{1}, Shape{2}));
  ASSERT_TRUE(sl.ok());
  EXPECT_EQ(sl->data<double>()[0], 1);
  // Out of bounds must fail.
  auto bad = Run1(ops::Slice(s, a, Shape{3}, Shape{2}));
  EXPECT_FALSE(bad.ok());
}

TEST_F(ArrayKernelTest, ConcatVectorsAndMatrices) {
  Scope s = rt_.root_scope();
  auto v1 = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2}));
  auto v2 = ops::Const(s, Tensor::FromVector(std::vector<double>{3}));
  auto cat = Run1(ops::Concat(s, {v1, v2}));
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->shape(), Shape({3}));
  EXPECT_EQ(cat->data<double>()[2], 3);

  auto m1 = ops::Const(s, Tensor::FromVector(Shape{1, 2},
                                             std::vector<float>{1, 2}));
  auto m2 = ops::Const(s, Tensor::FromVector(Shape{2, 2},
                                             std::vector<float>{3, 4, 5, 6}));
  auto mc = Run1(ops::Concat(s, {m1, m2}));
  ASSERT_TRUE(mc.ok());
  EXPECT_EQ(mc->shape(), Shape({3, 2}));
  EXPECT_EQ((mc->at<float>(2, 1)), 6);
}

TEST_F(ArrayKernelTest, ConcatRejectsMismatchedColumns) {
  Scope s = rt_.root_scope();
  auto m1 = ops::Const(s, Tensor(DType::kF32, Shape{1, 2}));
  auto m2 = ops::Const(s, Tensor(DType::kF32, Shape{1, 3}));
  EXPECT_FALSE(Run1(ops::Concat(s, {m1, m2})).ok());
}

TEST_F(ArrayKernelTest, CastRoundTrip) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<float>{1.5f, -2.25f}));
  auto d = Run1(ops::Cast(s, a, DType::kF64));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->dtype(), DType::kF64);
  EXPECT_DOUBLE_EQ(d->data<double>()[1], -2.25);
  // f64 -> i64 truncates.
  auto i = Run1(ops::Cast(s, ops::Const(s, Tensor::Scalar(3.9)), DType::kI64));
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->scalar<int64_t>(), 3);
}

TEST_F(ArrayKernelTest, NegAllDtypes) {
  Scope s = rt_.root_scope();
  auto f = Run1(ops::Neg(s, ops::Const(s, Tensor::Scalar(2.5))));
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->scalar<double>(), -2.5);
  Tensor c(DType::kC128, Shape{1});
  c.mutable_data<std::complex<double>>()[0] = {1, -2};
  auto cn = Run1(ops::Neg(s, ops::Const(s, c)));
  ASSERT_TRUE(cn.ok());
  EXPECT_EQ(cn->data<std::complex<double>>()[0], (std::complex<double>{-1, 2}));
}

TEST_F(ArrayKernelTest, AggregateReductions) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{3, -1, 4, 2}));
  auto mx = Run1(ops::ReduceMax(s, a));
  auto mn = Run1(ops::ReduceMin(s, a));
  auto mean = Run1(ops::ReduceMean(s, a));
  ASSERT_TRUE(mx.ok() && mn.ok() && mean.ok());
  EXPECT_DOUBLE_EQ(mx->scalar<double>(), 4);
  EXPECT_DOUBLE_EQ(mn->scalar<double>(), -1);
  EXPECT_DOUBLE_EQ(mean->scalar<double>(), 2);
}

TEST_F(ArrayKernelTest, ReductionOverEmptyFails) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF64, Shape{0}));
  EXPECT_FALSE(Run1(ops::ReduceMax(s, a)).ok());
}

TEST_F(ArrayKernelTest, FillAndZerosLike) {
  Scope s = rt_.root_scope();
  auto f = Run1(ops::Fill(s, DType::kF64, Shape{2, 2}, 7.5));
  ASSERT_TRUE(f.ok());
  for (double v : f->data<double>()) EXPECT_EQ(v, 7.5);
  auto z = Run1(ops::ZerosLike(s, ops::Const(s, *f)));
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z->shape(), Shape({2, 2}));
  for (double v : z->data<double>()) EXPECT_EQ(v, 0.0);
}

// Slice/Concat/Transpose compose into the tile-assembly identity used by
// the applications: concat(slice(m, top), slice(m, bottom)) == m.
TEST_F(ArrayKernelTest, SliceConcatIdentity) {
  Scope s = rt_.root_scope();
  Tensor m(DType::kF64, Shape{6, 4});
  FillUniform(m, 5);
  auto a = ops::Const(s, m);
  auto top = ops::Slice(s, a, Shape{0, 0}, Shape{2, 4});
  auto bottom = ops::Slice(s, a, Shape{2, 0}, Shape{4, 4});
  auto merged = Run1(ops::Concat(s, {top, bottom}));
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->BitwiseEquals(m));
}

}  // namespace
}  // namespace tfhpc
