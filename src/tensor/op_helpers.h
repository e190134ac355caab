#ifndef AUTOAC_TENSOR_OP_HELPERS_H_
#define AUTOAC_TENSOR_OP_HELPERS_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/variable.h"

// Internal helpers shared by the op implementation files. Not part of the
// public API.

namespace autoac::internal {

/// Builds an interior tape node: requires_grad is inherited from the
/// parents, and the backward closure is attached only when a gradient can
/// actually flow. Under a NoGradGuard the node is a plain value instead:
/// no parents (the upstream graph can be freed eagerly), no closure, and
/// requires_grad forced off — the tape-free inference path.
inline VarPtr MakeOp(std::string name, Tensor value,
                     std::vector<VarPtr> parents,
                     std::function<void(Variable&)> backward) {
  const bool grad_mode = GradModeEnabled();
  bool requires_grad = false;
  for (const VarPtr& p : parents) {
    AUTOAC_CHECK(p != nullptr) << "null input to op" << name;
    requires_grad = requires_grad || (grad_mode && p->requires_grad);
  }
  auto node = std::make_shared<Variable>(std::move(value), requires_grad);
  node->op_name = std::move(name);
  if (grad_mode) node->parents = std::move(parents);
  if (requires_grad) {
    node->backward_fn = std::move(backward);
    NoteBackwardClosure();
  }
  return node;
}

/// True if gradient should be accumulated into this parent.
inline bool NeedsGrad(const VarPtr& p) { return p->requires_grad; }

// Raw GEMM kernels on row-major buffers (gemm.cc, which states each one's
// per-element numerics contract). No aliasing between out and inputs. out is
// accumulated into (callers zero it first when needed).

/// out[m,n] += a[m,k] @ b[k,n]
void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

/// out[m,n] += a[m,k] @ b[n,k]^T
void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

/// out[k,n] += a[m,k]^T @ b[m,n]
void GemmTN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

}  // namespace autoac::internal

#endif  // AUTOAC_TENSOR_OP_HELPERS_H_
