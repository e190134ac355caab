#ifndef AUTOAC_SERVING_INFERENCE_SESSION_H_
#define AUTOAC_SERVING_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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
/// row lookup; per-request work allocates nothing.
///
/// The forward runs on the shared deterministic parallel runtime, so the
/// cached logits — and every prediction — are bitwise identical to the
/// training-time evaluation forward at any thread count.
///
/// Because that forward runs once per graph version, there is no compiled
/// plan to replay (DESIGN.md §11).
class InferenceSession {
 public:
  /// Rebuilds the GNN from the frozen weights, uploads H0, and computes the
  /// logits cache. CHECK-fails on internally inconsistent artifacts (load
  /// validation should have rejected them already).
  explicit InferenceSession(FrozenModel frozen);

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

  /// Re-runs the tape-free forward and replaces the logits cache.
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

 private:
  FrozenModel frozen_;
  ModelContext ctx_;
  ModelPtr model_;
  VarPtr h0_;            // const leaf holding the materialized H0
  VarPtr cls_weight_;    // const leaves of the classification head
  VarPtr cls_bias_;
  Tensor logits_;        // cached [num_nodes, num_classes] logits
  std::vector<int64_t> target_ids_;  // global id per target-local id
  Rng rng_;  // required by Model::Forward's signature; never drawn from
             // (training=false makes dropout an identity)
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_INFERENCE_SESSION_H_
