#include "tensor/tensor.h"

#include <utility>

#include "gtest/gtest.h"

namespace autoac {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.numel(), 0);
}

TEST(TensorTest, ShapeConstructionZeroFills) {
  Tensor t(3, 4);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
  }
}

TEST(TensorTest, FromVectorRoundTrips) {
  Tensor t = Tensor::FromVector({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, RowMajorLayout) {
  Tensor t = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  // Element (i, j) must live at data()[i * cols + j].
  EXPECT_EQ(t.data()[1 * 3 + 2], t.at(1, 2));
  EXPECT_EQ(t.at(1, 2), 5.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor full = Tensor::Full({2, 2}, 7.5f);
  EXPECT_EQ(full.at(1, 1), 7.5f);
  Tensor s = Tensor::Scalar(-3.0f);
  EXPECT_EQ(s.dim(), 1);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.at(0), -3.0f);
}

TEST(TensorTest, FillOverwritesEverything) {
  Tensor t = Tensor::FromVector({3}, {1, 2, 3});
  t.Fill(9.0f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(t.at(i), 9.0f);
}

TEST(TensorTest, ReshapePreservesDataAndNumel) {
  Tensor t = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.rows(), 3);
  EXPECT_EQ(r.cols(), 2);
  EXPECT_EQ(r.at(2, 1), 5.0f);
}

TEST(TensorTest, SameShape) {
  Tensor a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(TensorTest, ShapeString) {
  Tensor t(2, 3);
  EXPECT_EQ(t.ShapeString(), "[2, 3]");
}

// The process-wide allocation counter is the probe behind the "zero heap
// allocations in steady state" gates (predict loops, serving benchmark),
// so its bump/no-bump semantics are load-bearing.
TEST(TensorTest, BuffersAllocatedCountsOnlyNewStorage) {
  int64_t base = TensorBuffersAllocated();

  Tensor a(3, 4);  // shape construction allocates
  EXPECT_EQ(TensorBuffersAllocated(), base + 1);

  Tensor b = a;  // copy acquires its own buffer
  EXPECT_EQ(TensorBuffersAllocated(), base + 2);

  Tensor moved = std::move(b);  // moves steal, never allocate
  EXPECT_EQ(TensorBuffersAllocated(), base + 2);

  Tensor c(3, 4);  // +1
  c = a;           // capacity suffices: copy-assign reuses it
  EXPECT_EQ(TensorBuffersAllocated(), base + 3);
  Tensor d(1, 1);  // +1
  d = a;           // capacity too small: copy-assign must grow
  EXPECT_EQ(TensorBuffersAllocated(), base + 5);

  Tensor empty;  // zero-sized tensors never count
  Tensor empty2 = empty;
  EXPECT_EQ(TensorBuffersAllocated(), base + 5);
}

TEST(TensorDeathTest, FromVectorSizeMismatchAborts) {
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1.0f}), "CHECK failed");
}

TEST(TensorDeathTest, ReshapeNumelMismatchAborts) {
  Tensor t(2, 3);
  EXPECT_DEATH(t.Reshaped({4, 2}), "CHECK failed");
}

TEST(TensorDeathTest, NegativeExtentAborts) {
  EXPECT_DEATH(Tensor(std::vector<int64_t>{-1, 4}), "CHECK failed");
}

}  // namespace
}  // namespace autoac
