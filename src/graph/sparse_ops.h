#ifndef AUTOAC_GRAPH_SPARSE_OPS_H_
#define AUTOAC_GRAPH_SPARSE_OPS_H_

#include <vector>

#include "graph/csr.h"
#include "tensor/ops.h"

// Differentiable operations that touch sparse graph structure. These are the
// kernels every GNN in this library is built from: sparse-dense matmul for
// convolutional aggregation and edge-softmax attention for GAT-family
// models. Edge-indexed vectors follow the CSR storage order of the matrix's
// forward() representation.

namespace autoac {

/// Y = A @ X with A sparse [m, n] and X dense [n, d]. The backward pass uses
/// the cached transpose: dX = A^T @ dY. A's values participate as constants
/// (normalization weights), not as differentiable parameters.
VarPtr SpMM(const SpMatPtr& a, const VarPtr& x);

/// Attention aggregation: for each destination row i of A,
///   out[i, :] = sum_k softmax_k(logits[k]) * h[src(k), :]
/// where k ranges over the stored entries of row i and `logits` is a rank-1
/// variable of length A->nnz() in CSR storage order. Rows with no incoming
/// edges produce zeros. Gradients flow into both `logits` and `h`.
VarPtr EdgeSoftmaxAggregate(const SpMatPtr& a, const VarPtr& logits,
                            const VarPtr& h);

/// e[k] = x[src(k)] for every stored entry k of A (x is rank-1 over A's
/// columns). Used to broadcast per-source attention terms onto edges.
VarPtr GatherEdgeSrc(const SpMatPtr& a, const VarPtr& x);

/// e[k] = x[dst(k)] for every stored entry k of A (x is rank-1 over A's
/// rows). Used to broadcast per-destination attention terms onto edges.
VarPtr GatherEdgeDst(const SpMatPtr& a, const VarPtr& x);

/// Generic rank-1 gather: out[i] = x[ids[i]]. Used to broadcast per-edge-type
/// attention scalars onto edges via the CSR's edge_id -> type mapping.
VarPtr Gather1d(const VarPtr& x, std::vector<int64_t> ids);

/// scores[i] = <h[us[i], :], h[vs[i], :]>; the dot-product link decoder.
VarPtr PairDot(const VarPtr& h, std::vector<int64_t> us,
               std::vector<int64_t> vs);

}  // namespace autoac

#endif  // AUTOAC_GRAPH_SPARSE_OPS_H_
