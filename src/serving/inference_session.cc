#include "serving/inference_session.h"

#include <string>
#include <utility>

#include "models/factory.h"
#include "tensor/ops.h"

namespace autoac {

InferenceSession::InferenceSession(FrozenModel frozen)
    : frozen_(std::move(frozen)), rng_(frozen_.seed) {
  AUTOAC_CHECK(frozen_.graph != nullptr) << "frozen model has no graph";
  ctx_ = BuildModelContext(frozen_.graph);

  ModelConfig model_config;
  model_config.in_dim = frozen_.hidden_dim;
  model_config.hidden_dim = frozen_.hidden_dim;
  model_config.out_dim = frozen_.hidden_dim;
  model_config.num_layers = frozen_.num_layers;
  model_config.num_heads = frozen_.num_heads;
  model_config.dropout = frozen_.dropout;
  model_config.negative_slope = frozen_.negative_slope;
  Rng init_rng(frozen_.seed);
  model_ = MakeModel(frozen_.model_name, model_config, ctx_, init_rng,
                     /*l2_normalize_output=*/false);
  std::vector<VarPtr> params = model_->Parameters();
  AUTOAC_CHECK_EQ(params.size(), frozen_.model_params.size())
      << "frozen weights do not match the rebuilt " << frozen_.model_name;
  for (size_t i = 0; i < params.size(); ++i) {
    AUTOAC_CHECK(params[i]->value.SameShape(frozen_.model_params[i]))
        << "frozen weight " << i << " has the wrong shape";
    params[i]->value = frozen_.model_params[i];
  }

  h0_ = MakeConst(frozen_.h0);
  cls_weight_ = MakeConst(frozen_.classifier_weight);
  cls_bias_ = MakeConst(frozen_.classifier_bias);
  target_ids_ = frozen_.graph->TargetGlobalIds();
  RecomputeLogits();
}

void InferenceSession::RecomputeLogits() {
  // Tape-free: no closure is allocated, no parent chain retained, and every
  // intermediate frees as soon as its last consumer releases it. Mirrors
  // the training-time evaluation forward (model Forward + Linear head)
  // op for op, so the values are bitwise identical to in-process eval.
  NoGradGuard no_grad;
  VarPtr h = model_->Forward(ctx_, h0_, /*training=*/false, rng_);
  VarPtr logits = AddBias(MatMul(h, cls_weight_), cls_bias_);
  logits_ = std::move(logits->value);
}

StatusOr<InferenceSession::Prediction> InferenceSession::Predict(
    int64_t node) const {
  if (node < 0 || node >= num_targets()) {
    return Status::Error("node id " + std::to_string(node) +
                         " out of range [0, " +
                         std::to_string(num_targets()) + ")");
  }
  int64_t global = target_ids_[node];
  const float* row = logits_.data() + global * logits_.cols();
  Prediction prediction;
  prediction.node = node;
  prediction.label = 0;
  prediction.score = row[0];
  for (int64_t c = 1; c < logits_.cols(); ++c) {
    if (row[c] > prediction.score) {
      prediction.score = row[c];
      prediction.label = c;
    }
  }
  return prediction;
}

StatusOr<std::vector<InferenceSession::Prediction>>
InferenceSession::PredictBatch(const std::vector<int64_t>& nodes) const {
  for (int64_t node : nodes) {
    if (node < 0 || node >= num_targets()) return Predict(node).status();
  }
  std::vector<Prediction> out;
  out.reserve(nodes.size());
  for (int64_t node : nodes) out.push_back(Predict(node).value());
  return out;
}

}  // namespace autoac
