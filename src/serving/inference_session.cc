#include "serving/inference_session.h"

#include <string>
#include <utility>

#include "models/factory.h"
#include "tensor/graph_ir.h"
#include "tensor/ops.h"

namespace autoac {

InferenceSession::InferenceSession(FrozenModel frozen, const Options& options)
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
  if (options.compile) {
    TryCompile();  // the capture run produces the first hidden/logits
  } else {
    RecomputeLogits();
  }
}

void InferenceSession::TryCompile() {
  ir::Graph graph;
  {
    // The capture executes eagerly while recording, so this *is* the first
    // logits computation — a failed compile costs nothing extra.
    IrCapture capture;
    capture.MarkInput(h0_, "h0");
    VarPtr h = model_->Forward(ctx_, h0_, /*training=*/false, rng_);
    // Quantized artifacts route the classifier weight through a Dequantize
    // node, which the dequantize-on-load pass folds into the plan; decoding
    // is deterministic, so the values equal cls_weight_ bit for bit.
    VarPtr weight = frozen_.encoded_classifier_weight != nullptr
                        ? Dequantize(frozen_.encoded_classifier_weight)
                        : cls_weight_;
    VarPtr logits = AddBias(MatMul(h, weight), cls_bias_);
    graph = capture.Finish(logits);
    logits_ = std::move(logits->value);
  }
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(graph));
  if (!compiled.ok()) return;  // keep the interpreted path
  compiled_ = std::make_unique<compiler::CompiledGraph>(compiled.TakeValue());
  compiled_inputs_ = {&frozen_.h0};
  // The compiled kernels pin the weights, index lists, and adjacency
  // matrices they reference (via Value::leaf and captured shared_ptrs), so
  // the rebuilt autograd model, the duplicated leaf constants, and the
  // context's cached adjacencies are now dead weight.
  model_.reset();
  h0_.reset();
  cls_weight_.reset();
  cls_bias_.reset();
  ctx_ = ModelContext{};
}

void InferenceSession::RecomputeLogits() {
  if (compiled_ != nullptr) {
    // Replays the compiled plan into the preplanned arena; after the first
    // call this performs zero heap tensor allocations.
    compiled_->Run(compiled_inputs_, &logits_);
    return;
  }
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
