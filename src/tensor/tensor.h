#ifndef AUTOAC_TENSOR_TENSOR_H_
#define AUTOAC_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace autoac {

/// Process-wide count of heap float buffers acquired by Tensor (shape
/// construction, FromVector, copies that cannot reuse existing capacity).
/// Moves do not count. Tests and the serving benchmark snapshot it around a
/// forward or a predict loop to pin how many buffers each one acquires —
/// the allocation analogue of BackwardClosuresAllocated().
int64_t TensorBuffersAllocated();

/// Dense float32 tensor with row-major layout. The library only needs rank-1
/// and rank-2 tensors (vectors of per-node scalars and [rows x cols] feature
/// matrices), so the implementation favours simplicity: contiguous storage,
/// no views, copy/move both supported.
class Tensor {
 public:
  /// Empty tensor (numel() == 0, dim() == 0).
  Tensor() = default;

  // Copies count toward TensorBuffersAllocated() when they acquire a new
  // buffer; moves never do. Spelled out so every allocation site is visible.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;
  ~Tensor() = default;

  /// Zero-initialized tensor with the given shape. Every extent must be
  /// non-negative.
  explicit Tensor(std::vector<int64_t> shape);

  /// Convenience rank-2 constructor.
  Tensor(int64_t rows, int64_t cols)
      : Tensor(std::vector<int64_t>{rows, cols}) {}

  /// Builds a tensor by copying `values` (size must equal the shape product).
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> values);

  /// All-zeros / all-`value` tensors.
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);

  /// Scalar (rank-1, single element) tensor.
  static Tensor Scalar(float value);

  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t size(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// Rank-2 accessors. rows()/cols() require dim() == 2.
  int64_t rows() const;
  int64_t cols() const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Element access. `at(i)` works for rank-1; `at(i, j)` for rank-2.
  /// Bounds are DCHECK'd (free in release builds).
  float& at(int64_t i) {
    AUTOAC_DCHECK(dim() == 1 && i >= 0 && i < numel());
    return data_[i];
  }
  float at(int64_t i) const {
    AUTOAC_DCHECK(dim() == 1 && i >= 0 && i < numel());
    return data_[i];
  }
  float& at(int64_t i, int64_t j) {
    AUTOAC_DCHECK(dim() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
                  j < shape_[1]);
    return data_[i * shape_[1] + j];
  }
  float at(int64_t i, int64_t j) const {
    AUTOAC_DCHECK(dim() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
                  j < shape_[1]);
    return data_[i * shape_[1] + j];
  }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Returns a copy with a new shape of identical numel.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  /// True if shapes match exactly.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable shape, e.g. "[128, 64]".
  std::string ShapeString() const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

}  // namespace autoac

#endif  // AUTOAC_TENSOR_TENSOR_H_
