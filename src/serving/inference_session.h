#ifndef AUTOAC_SERVING_INFERENCE_SESSION_H_
#define AUTOAC_SERVING_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "compiler/compiled_graph.h"
#include "serving/frozen_model.h"
#include "util/rng.h"
#include "util/status.h"

namespace autoac {

/// Tape-free inference over a FrozenModel (DESIGN.md §10).
///
/// The benchmark graphs are transductive: every node the model can be asked
/// about is already in the frozen graph, so one forward pass determines
/// every answer. The session therefore runs the GNN forward exactly once
/// (under NoGradGuard — zero backward closures, no parent retention),
/// caches the full logits matrix, and serves each request as an O(classes)
/// row lookup. The activation buffers (materialized H0 constant, logits
/// matrix) are allocated once at construction and reused for the lifetime
/// of the session; per-request work allocates nothing.
///
/// The forward runs on the shared deterministic parallel runtime, so the
/// cached logits — and every prediction — are bitwise identical to the
/// training-time evaluation forward at any thread count.
///
/// By default the constructor also *compiles* the forward (DESIGN.md §11):
/// the first forward runs under IrCapture, the src/compiler/ pass pipeline
/// rewrites the captured IR (folding, fusion, in-place), and the arena
/// planner preallocates every intermediate. From then on RecomputeLogits()
/// replays the compiled plan — bitwise identical to the interpreted path at
/// every thread count, but with zero heap tensor allocations in steady
/// state. On a successful compile the rebuilt autograd model and the
/// duplicated leaf constants are released (the compiled kernels pin the
/// weights and adjacency matrices they need), shrinking the session's
/// resident footprint. If the capture is not compilable (an op without a
/// replay kernel) the session silently keeps the interpreted path.
class InferenceSession {
 public:
  struct Options {
    /// Compile the forward at construction. --no_compile clears it; the
    /// interpreted fallback is also what compiled-vs-interpreted identity
    /// tests compare against.
    bool compile = true;
  };

  /// Rebuilds the GNN from the frozen weights, uploads H0, and computes the
  /// logits cache. CHECK-fails on internally inconsistent artifacts (load
  /// validation should have rejected them already). The single-argument
  /// overload uses the default Options (compile on).
  InferenceSession(FrozenModel frozen, const Options& options);
  explicit InferenceSession(FrozenModel frozen)
      : InferenceSession(std::move(frozen), Options()) {}

  /// One prediction for a target-type node addressed by its type-local id.
  struct Prediction {
    int64_t node = -1;   // echo of the requested local id
    int64_t label = -1;  // argmax class
    float score = 0.0f;  // logit of the argmax class
  };

  /// Looks up the prediction for target-local node id `node`. Out-of-range
  /// ids are a Status error (the serving front-end turns it into an error
  /// response, not a crash).
  StatusOr<Prediction> Predict(int64_t node) const;

  /// Predictions for several target-local ids, in order. Every id is
  /// checked first, so any out-of-range id fails the whole request before
  /// any row is read; each answer is then exactly Predict's.
  StatusOr<std::vector<Prediction>> PredictBatch(
      const std::vector<int64_t>& nodes) const;

  /// Re-runs the forward into the existing logits buffer — the compiled
  /// plan when one exists, the interpreted tape-free forward otherwise.
  /// Idempotent — the result is bitwise identical every time. Exposed for
  /// the thread-invariance tests and the serving benchmark.
  void RecomputeLogits();

  int64_t num_targets() const {
    return static_cast<int64_t>(target_ids_.size());
  }
  int64_t num_classes() const { return frozen_.num_classes; }
  /// Full cached logits [num_nodes, num_classes] (row = global node id).
  const Tensor& logits() const { return logits_; }
  const FrozenModel& frozen() const { return frozen_; }

  /// The compiled forward (h0 -> logits, classifier head included), or
  /// nullptr when running interpreted (compile disabled or the capture was
  /// not compilable). Exposed for --dump_ir and the compiler tests.
  const compiler::CompiledGraph* compiled_graph() const {
    return compiled_.get();
  }

 private:
  /// Captures the forward, runs the pass pipeline + planner, and installs
  /// the compiled plan. The capture's eager execution doubles as the first
  /// logits computation. Leaves the interpreted state untouched on failure.
  void TryCompile();

  FrozenModel frozen_;
  ModelContext ctx_;
  ModelPtr model_;
  VarPtr h0_;            // const leaf holding the materialized H0
  VarPtr cls_weight_;    // const leaves of the classification head
  VarPtr cls_bias_;
  Tensor logits_;        // reused activation buffer
  std::vector<int64_t> target_ids_;  // global id per target-local id
  std::unique_ptr<compiler::CompiledGraph> compiled_;
  std::vector<const Tensor*> compiled_inputs_;  // bound once: {&frozen_.h0}
  Rng rng_;  // required by Model::Forward's signature; never drawn from
             // (training=false makes dropout an identity)
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_INFERENCE_SESSION_H_
