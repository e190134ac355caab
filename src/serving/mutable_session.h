#ifndef AUTOAC_SERVING_MUTABLE_SESSION_H_
#define AUTOAC_SERVING_MUTABLE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/mutable_graph.h"
#include "serving/inference_session.h"
#include "util/status.h"

namespace autoac {

/// One streaming graph delta (DESIGN.md §12), as parsed from the serving
/// socket or a --mutation_feed file. Endpoint ids are type-local in the
/// *current* layout (existing nodes keep their export-time locals; added
/// nodes get the locals AddNode returned).
struct Mutation {
  enum class Kind { kAddNode, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddNode;
  std::string node_type;          // add_node: type of the new node
  std::vector<float> attributes;  // add_node: optional raw attribute row
  std::string edge_type;          // add_edge / remove_edge
  int64_t src = -1;               // add_edge / remove_edge endpoint locals
  int64_t dst = -1;
  /// When nonzero, the mutation only applies if the live artifact's content
  /// fingerprint matches — the guard against racing a SIGHUP reload that
  /// swapped the model underneath the client.
  uint64_t expect_fingerprint = 0;
};

/// Outcome of one applied mutation, echoed to the client and counted in
/// the server's `serve.dirty_rows`.
struct MutationResult {
  int64_t node = -1;       // add_node: assigned type-local id
  int64_t dirty_rows = 0;  // logits rows newly marked dirty by this delta
};

/// Incremental serving session over a mutable graph overlay (DESIGN.md §12).
///
/// Wraps a frozen InferenceSession and keeps its own copies of the
/// materialized H0 and the cached logits matrix. Each mutation expands a
/// K-hop dirty frontier (K derived from the artifact's completion
/// operations plus the GNN's receptive depth) and marks the affected rows;
/// reads of clean rows are served straight from the cache, reads of dirty
/// rows are served stale-but-bounded or trigger a recompute per the
/// staleness policy.
///
/// The recompute is partial whenever the model is row-decomposable: the
/// support ball around the dirty rows is extracted as a degree-overridden
/// subgraph, the frozen parameters are bound onto a completion module + GNN
/// rebuilt on it, and the interpreted forward runs on the subgraph only;
/// the dirty rows are scattered back. Models with global coupling (HAN /
/// MAGNN / HetGNN semantic attention averages over *all* target rows) and
/// deltas whose support ball stops being local fall back to a full
/// from-scratch refreeze (RefreezeWithGraph). Both paths are bitwise
/// identical to exporting the mutated graph from scratch — the headline
/// invariant the mutation-equivalence suite enforces at every thread count.
class MutableSession {
 public:
  struct Options {
    /// 0: every mutation flushes before returning, so reads never observe a
    /// stale row. >0: dirty rows are served from the stale cache until the
    /// oldest unflushed mutation is older than this bound, then a read of a
    /// dirty row recomputes first.
    int64_t staleness_ms = 0;
  };

  /// `base` must outlive nothing — the session shares ownership. Starts as
  /// an exact replica of the base session (same logits, same answers).
  MutableSession(std::shared_ptr<InferenceSession> base,
                 const Options& options);

  const FrozenModel& frozen() const { return base_->frozen(); }
  uint64_t fingerprint() const { return base_->frozen().fingerprint; }
  /// The live overlay. Tests build the from-scratch reference re-export
  /// from its compacted graph; the CLI reports its version().
  MutableGraph& graph() { return graph_; }
  int64_t num_targets() const;
  int64_t num_classes() const { return base_->frozen().num_classes; }

  /// Validates and applies one delta. Distinct errors for: v1 artifacts
  /// (no completion section), fingerprint mismatch (SIGHUP swapped the
  /// model), unknown node/edge type, malformed attribute rows, endpoint
  /// ids out of range, and removal of a nonexistent edge. On success the
  /// dirty frontier is expanded; with staleness_ms == 0 the recompute also
  /// runs before returning.
  StatusOr<MutationResult> Apply(const Mutation& mutation);

  /// Prediction for a target-type node addressed by its *current*
  /// type-local id — nodes added after export are addressable as soon as
  /// Apply returns their local id (inductive scoring). Clean rows are an
  /// O(classes) row lookup exactly like InferenceSession::Predict; dirty
  /// rows follow the staleness policy.
  StatusOr<InferenceSession::Prediction> Predict(int64_t node);

  /// Recomputes every dirty row now (partial when possible, full refreeze
  /// otherwise) and clears the frontier. No-op when clean.
  void Flush();

  /// FNV-1a digest over the full logits matrix after a Flush(). The
  /// mutation-equivalence fuzz compares this against the digest of a
  /// from-scratch re-export at every thread count.
  uint64_t LogitsDigest();

  /// Full current logits [num_nodes, num_classes] (row = global id).
  /// Flushes first so the matrix is exact.
  const Tensor& FlushedLogits();

  // --- observability (per overlay) ------------------------------------------
  int64_t mutations_applied() const { return mutations_applied_; }
  /// Logits rows recomputed via the partial (subgraph) path. Each flush
  /// also adds them to the process-wide counter
  /// `mutable.partial_forward_rows` (DESIGN.md §8).
  int64_t partial_forward_rows() const { return partial_forward_rows_; }
  int64_t partial_recomputes() const { return partial_recomputes_; }
  int64_t full_recomputes() const { return full_recomputes_; }
  /// Rows currently dirty (awaiting a flush).
  int64_t pending_dirty_rows() const {
    return static_cast<int64_t>(dirty_logits_.size());
  }

 private:
  /// Folds rows into the dirty sets. `logits_rows` / `h0_rows` are the
  /// influence balls of one delta — the union of the balls on the graph
  /// before and after applying it (a removal's influence flowed through
  /// the edge that no longer exists). Counts rows newly marked dirty.
  void MarkDirty(const std::vector<int64_t>& logits_rows,
                 const std::vector<int64_t>& h0_rows, int64_t* newly_dirty);
  /// Shifts dirty ids for a node inserted at global id `pos` (ids >= pos
  /// move up by one) and inserts a zero row into h0_ / logits_.
  void InsertNodeRow(int64_t pos);
  /// Completion radius of the operations currently in use.
  int64_t CompletionRadius() const;
  /// Subgraph recompute of the sorted dirty rows. False when the support
  /// ball is not local enough (caller falls back to FlushFull).
  bool TryFlushPartial(const std::vector<int64_t>& dirty_logits,
                       const std::vector<int64_t>& dirty_h0);
  void FlushFull();
  void MaybeFlushForRead();

  std::shared_ptr<InferenceSession> base_;
  Options options_;
  MutableGraph graph_;
  Tensor h0_;      // current completed H0 (exact for clean rows)
  Tensor logits_;  // current logits cache (exact for clean rows)
  int64_t model_hops_ = 0;     // receptive depth of the GNN
  bool partial_capable_ = false;
  bool ops_present_[4] = {false, false, false, false};
  std::unordered_set<int64_t> dirty_logits_;
  std::unordered_set<int64_t> dirty_h0_;
  std::chrono::steady_clock::time_point first_dirty_{};

  int64_t mutations_applied_ = 0;
  int64_t partial_forward_rows_ = 0;
  int64_t partial_recomputes_ = 0;
  int64_t full_recomputes_ = 0;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_MUTABLE_SESSION_H_
