#include "serving/mutable_session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "autoac/checkpoint.h"
#include "completion/completion_module.h"
#include "models/factory.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// Sorted union of two sorted id vectors.
std::vector<int64_t> SortedUnion(const std::vector<int64_t>& a,
                                 const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

void CopyRow(const Tensor& src, int64_t src_row, Tensor& dst,
             int64_t dst_row) {
  std::copy(src.data() + src_row * src.cols(),
            src.data() + (src_row + 1) * src.cols(),
            dst.data() + dst_row * dst.cols());
}

}  // namespace

MutableSession::MutableSession(std::shared_ptr<InferenceSession> base,
                               const Options& options)
    : base_(std::move(base)), options_(options), graph_(base_->frozen().graph) {
  const FrozenModel& fz = base_->frozen();
  h0_ = fz.h0;               // deep copies: the base session stays pristine
  logits_ = base_->logits();
  // Receptive depth and partial-path eligibility per architecture. The
  // partial path needs every model output row to depend only on a bounded
  // neighbourhood of the input; HAN and MAGNN couple all target rows
  // through SemanticAttention's global mean (as does HetGNN, which also
  // aggregates over non-overridable per-source-type adjacencies), so any
  // delta invalidates every row and only the full refreeze is exact.
  const std::string& name = fz.model_name;
  if (name == "GCN" || name == "GAT" || name == "SimpleHGN" ||
      name == "HGT" || name == "HetSANN") {
    partial_capable_ = true;
    model_hops_ = fz.num_layers;
  } else if (name == "GTN") {
    partial_capable_ = true;
    model_hops_ = 2;  // one composite (2-hop) meta-adjacency convolution
  } else if (name == "GATNE") {
    partial_capable_ = true;
    model_hops_ = 1;
  } else {
    partial_capable_ = false;
    model_hops_ = fz.num_layers;
  }
  for (CompletionOpType op : fz.op_of) {
    ops_present_[static_cast<int>(op)] = true;
  }
}

int64_t MutableSession::num_targets() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t target = base_->frozen().graph->target_node_type();
  return target < 0 ? 0 : graph_.node_count(target);
}

int64_t MutableSession::CompletionRadius() const {
  int64_t c = 0;
  if (ops_present_[static_cast<int>(CompletionOpType::kMean)] ||
      ops_present_[static_cast<int>(CompletionOpType::kGcn)]) {
    c = std::max<int64_t>(c, 1);
  }
  if (ops_present_[static_cast<int>(CompletionOpType::kPpnp)]) {
    c = std::max<int64_t>(c, base_->frozen().ppnp_steps);
  }
  return c;
}

void MutableSession::MarkDirty(const std::vector<int64_t>& logits_rows,
                               const std::vector<int64_t>& h0_rows,
                               int64_t* newly_dirty) {
  for (int64_t g : logits_rows) {
    if (dirty_logits_.insert(g).second) ++*newly_dirty;
  }
  for (int64_t g : h0_rows) dirty_h0_.insert(g);
}

void MutableSession::InsertNodeRow(int64_t pos) {
  auto insert_row = [pos](Tensor& t) {
    Tensor grown = Tensor::Zeros({t.rows() + 1, t.cols()});
    const float* src = t.data();
    float* dst = grown.data();
    std::copy(src, src + pos * t.cols(), dst);
    std::copy(src + pos * t.cols(), src + t.rows() * t.cols(),
              dst + (pos + 1) * t.cols());
    t = std::move(grown);
  };
  insert_row(h0_);
  insert_row(logits_);
  auto shift = [pos](std::unordered_set<int64_t>& ids) {
    std::unordered_set<int64_t> shifted;
    shifted.reserve(ids.size());
    for (int64_t g : ids) shifted.insert(g >= pos ? g + 1 : g);
    ids.swap(shifted);
  };
  shift(dirty_logits_);
  shift(dirty_h0_);
}

void MutableSession::CheckHeld(const std::unique_lock<std::mutex>& held) const {
  AUTOAC_CHECK(held.mutex() == &mu_ && held.owns_lock())
      << "caller does not hold this session's lock";
}

StatusOr<MutationResult> MutableSession::Apply(const Mutation& mutation) {
  std::unique_lock<std::mutex> lock = Lock();
  return Apply(mutation, lock);
}

StatusOr<MutationResult> MutableSession::Apply(
    const Mutation& mutation, const std::unique_lock<std::mutex>& held) {
  CheckHeld(held);
  const FrozenModel& fz = base_->frozen();
  if (!fz.has_completion) {
    return Status::Error(
        "frozen model predates the completion section (v1 artifact); "
        "re-export to enable mutations");
  }
  if (mutation.expect_fingerprint != 0 &&
      mutation.expect_fingerprint != fz.fingerprint) {
    return Status::Error("fingerprint mismatch: artifact is " +
                         HexFingerprint(fz.fingerprint) +
                         ", mutation expected " +
                         HexFingerprint(mutation.expect_fingerprint) +
                         " (model reloaded?)");
  }
  bool was_clean = dirty_logits_.empty();
  MutationResult result;
  std::vector<int64_t> seeds;
  // Influence balls of a removal must be measured on the graph that still
  // has the edge: a row that was reachable only through it is dirty too.
  std::vector<int64_t> pre_logits;
  std::vector<int64_t> pre_h0;
  switch (mutation.kind) {
    case Mutation::Kind::kAddNode: {
      StatusOr<int64_t> type = graph_.NodeTypeIdOf(mutation.node_type);
      if (!type.ok()) return type.status();
      StatusOr<int64_t> local = graph_.AddNode(type.value(),
                                               mutation.attributes);
      if (!local.ok()) return local.status();
      result.node = local.value();
      int64_t pos = graph_.GlobalId(type.value(), local.value());
      InsertNodeRow(pos);
      if (!graph_.attributed(type.value())) {
        // The new node completes with the deterministic default operation.
        ops_present_[static_cast<int>(CompletionOpType::kMean)] = true;
      }
      seeds = {pos};
      break;
    }
    case Mutation::Kind::kAddEdge:
    case Mutation::Kind::kRemoveEdge: {
      StatusOr<int64_t> type = graph_.EdgeTypeIdOf(mutation.edge_type);
      if (!type.ok()) return type.status();
      const HeteroGraph::EdgeTypeInfo& info =
          fz.graph->edge_type(type.value());
      if (mutation.src < 0 ||
          mutation.src >= graph_.node_count(info.src_type) ||
          mutation.dst < 0 ||
          mutation.dst >= graph_.node_count(info.dst_type)) {
        return Status::Error(
            "edge endpoint out of range for edge type \"" +
            mutation.edge_type + "\"");
      }
      seeds = {graph_.GlobalId(info.src_type, mutation.src),
               graph_.GlobalId(info.dst_type, mutation.dst)};
      if (mutation.kind == Mutation::Kind::kRemoveEdge) {
        int64_t c = CompletionRadius();
        pre_logits = graph_.Ball(seeds, c + model_hops_);
        pre_h0 = graph_.Ball(seeds, c);
        Status removed = graph_.RemoveEdge(type.value(), mutation.src,
                                           mutation.dst);
        if (!removed.ok()) return removed;
      } else {
        Status added = graph_.AddEdge(type.value(), mutation.src,
                                      mutation.dst);
        if (!added.ok()) return added;
      }
      break;
    }
  }
  int64_t c = CompletionRadius();
  MarkDirty(SortedUnion(graph_.Ball(seeds, c + model_hops_), pre_logits),
            SortedUnion(graph_.Ball(seeds, c), pre_h0), &result.dirty_rows);
  ++mutations_applied_;
  if (was_clean && !dirty_logits_.empty()) {
    first_dirty_ = std::chrono::steady_clock::now();
  }
  if (options_.staleness_ms == 0) FlushLocked();
  return result;
}

void MutableSession::MaybeFlushForRead() {
  if (options_.staleness_ms <= 0) {
    // staleness 0 flushes inside Apply; a dirty row here means a zero-bound
    // policy race is impossible, but flush defensively anyway.
    FlushLocked();
    return;
  }
  auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - first_dirty_);
  if (age.count() >= options_.staleness_ms) FlushLocked();
}

StatusOr<InferenceSession::Prediction> MutableSession::Predict(int64_t node) {
  std::unique_lock<std::mutex> lock = Lock();
  return Predict(node, lock);
}

StatusOr<InferenceSession::Prediction> MutableSession::Predict(
    int64_t node, const std::unique_lock<std::mutex>& held) {
  CheckHeld(held);
  int64_t target = base_->frozen().graph->target_node_type();
  if (target < 0) {
    return Status::Error("frozen model has no target node type");
  }
  int64_t count = graph_.node_count(target);
  if (node < 0 || node >= count) {
    return Status::Error("node id " + std::to_string(node) +
                         " out of range [0, " + std::to_string(count) + ")");
  }
  int64_t global = graph_.GlobalId(target, node);
  if (dirty_logits_.count(global) != 0) MaybeFlushForRead();
  const float* row = logits_.data() + global * logits_.cols();
  InferenceSession::Prediction prediction;
  prediction.node = node;
  prediction.label = 0;
  prediction.score = row[0];
  for (int64_t cls = 1; cls < logits_.cols(); ++cls) {
    if (row[cls] > prediction.score) {
      prediction.score = row[cls];
      prediction.label = cls;
    }
  }
  return prediction;
}

void MutableSession::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

void MutableSession::FlushLocked() {
  if (dirty_logits_.empty() && dirty_h0_.empty()) return;
  std::vector<int64_t> dirty_logits(dirty_logits_.begin(),
                                    dirty_logits_.end());
  std::sort(dirty_logits.begin(), dirty_logits.end());
  std::vector<int64_t> dirty_h0(dirty_h0_.begin(), dirty_h0_.end());
  std::sort(dirty_h0.begin(), dirty_h0.end());
  bool done = partial_capable_ && TryFlushPartial(dirty_logits, dirty_h0);
  if (!done) FlushFull();
  dirty_logits_.clear();
  dirty_h0_.clear();
}

bool MutableSession::TryFlushPartial(const std::vector<int64_t>& dirty_logits,
                                     const std::vector<int64_t>& dirty_h0) {
  const FrozenModel& fz = base_->frozen();
  int64_t c = CompletionRadius();
  // Support ball: every row a dirty logits row reads across `model_hops_`
  // layers, plus every row a dirty H0 row aggregates across the completion
  // radius. Rows of S outside those balls only need their *stored* values.
  std::vector<int64_t> support =
      SortedUnion(graph_.Ball(dirty_logits, model_hops_),
                  graph_.Ball(dirty_h0, c));
  int64_t num_nodes = graph_.num_nodes();
  if (static_cast<int64_t>(support.size()) * 2 > num_nodes) {
    return false;  // not local: the full recompute is cheaper and simpler
  }
  if (static_cast<int64_t>(support.size()) == fz.graph->num_nodes()) {
    // A subgraph with exactly the frozen node count under a non-identity
    // node map defeats the shape-based per-node-parameter detection in
    // BindFrozenParams (a [n_old, d] weight is ambiguous); refreeze instead.
    return false;
  }
  MutableGraph::Subgraph sub = graph_.Extract(support);
  const HeteroGraphPtr& compact = graph_.Compact();

  // Rebuild completion + model on the subgraph (same construction order as
  // RefreezeWithGraph; the init draws are overwritten by the bind).
  Rng rng(fz.seed);
  CompletionConfig completion_config;
  completion_config.hidden_dim = fz.hidden_dim;
  completion_config.ppnp_restart = fz.ppnp_restart;
  completion_config.ppnp_steps = fz.ppnp_steps;
  CompletionModule completion(sub.graph, completion_config, rng);
  ModelContext ctx = BuildModelContext(sub.graph);
  ModelConfig model_config;
  model_config.in_dim = fz.hidden_dim;
  model_config.hidden_dim = fz.hidden_dim;
  model_config.out_dim = fz.hidden_dim;
  model_config.num_layers = fz.num_layers;
  model_config.num_heads = fz.num_heads;
  model_config.dropout = fz.dropout;
  model_config.negative_slope = fz.negative_slope;
  ModelPtr model = MakeModel(fz.model_name, model_config, ctx, rng,
                             /*l2_normalize_output=*/false);

  // Frozen type-local id of each subgraph node (-1 for post-export nodes).
  std::vector<std::vector<int64_t>> frozen_local_of(
      compact->num_node_types());
  for (int64_t t = 0; t < compact->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& sub_info = sub.graph->node_type(t);
    const HeteroGraph::NodeTypeInfo& full_info = compact->node_type(t);
    int64_t frozen_count = fz.graph->node_type(t).count;
    frozen_local_of[t].resize(sub_info.count);
    for (int64_t l = 0; l < sub_info.count; ++l) {
      int64_t full_local =
          sub.sub_to_full[sub_info.offset + l] - full_info.offset;
      frozen_local_of[t][l] = full_local < frozen_count ? full_local : -1;
    }
  }
  Status bound = BindFrozenParams(fz, *sub.graph, frozen_local_of,
                                  completion.Parameters(),
                                  model->Parameters());
  if (!bound.ok()) return false;  // e.g. an ambiguous shape: refreeze

  // Completion ops for the subgraph's missing nodes, gathered from the
  // extended full assignment (so both paths complete a node identically).
  std::vector<CompletionOpType> full_ops = ExtendOpAssignment(fz, *compact);
  std::vector<int64_t> full_missing_pos(compact->num_nodes(), -1);
  int64_t next_missing = 0;
  for (int64_t t = 0; t < compact->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = compact->node_type(t);
    if (info.attributes.numel() > 0) continue;
    for (int64_t l = 0; l < info.count; ++l) {
      full_missing_pos[info.offset + l] = next_missing++;
    }
  }
  std::vector<CompletionOpType> sub_ops;
  sub_ops.reserve(completion.num_missing());
  for (int64_t sub_id : completion.missing_nodes()) {
    int64_t pos = full_missing_pos[sub.sub_to_full[sub_id]];
    AUTOAC_CHECK(pos >= 0) << "missing-node bookkeeping out of sync";
    sub_ops.push_back(full_ops[pos]);
  }

  NoGradGuard no_grad;
  VarPtr h0_sub = completion.CompleteDiscrete(sub_ops);
  Tensor& h0_values = h0_sub->value;
  // Hybrid H0: rows whose full-graph counterpart is clean take the stored
  // (exact) value — only dirty rows rely on the subgraph recompute, and
  // their aggregation neighbourhoods are fully inside the support ball.
  for (int64_t i = 0; i < h0_values.rows(); ++i) {
    if (dirty_h0_.count(sub.sub_to_full[i]) == 0) {
      CopyRow(h0_, sub.sub_to_full[i], h0_values, i);
    }
  }
  VarPtr h = model->Forward(ctx, h0_sub, /*training=*/false, rng);
  VarPtr logits = AddBias(MatMul(h, MakeConst(fz.classifier_weight)),
                          MakeConst(fz.classifier_bias));
  const Tensor& logit_values = logits->value;
  for (int64_t g : dirty_logits) {
    CopyRow(logit_values, sub.full_to_sub[g], logits_, g);
  }
  for (int64_t g : dirty_h0) {
    CopyRow(h0_values, sub.full_to_sub[g], h0_, g);
  }
  partial_forward_rows_ += static_cast<int64_t>(dirty_logits.size());
  AUTOAC_COUNTER_ADD("mutable.partial_forward_rows",
                     static_cast<int64_t>(dirty_logits.size()));
  ++partial_recomputes_;
  return true;
}

void MutableSession::FlushFull() {
  const FrozenModel& fz = base_->frozen();
  const HeteroGraphPtr& compact = graph_.Compact();
  StatusOr<FrozenModel> refrozen =
      RefreezeWithGraph(fz, compact, ExtendOpAssignment(fz, *compact));
  AUTOAC_CHECK(refrozen.ok()) << refrozen.status().message();
  InferenceSession session(refrozen.TakeValue());
  h0_ = session.frozen().h0;
  logits_ = session.logits();
  ++full_recomputes_;
}

uint64_t MutableSession::LogitsDigest() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  return DigestTensor(kFnvOffsetBasis, logits_);
}

const Tensor& MutableSession::FlushedLogits() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  return logits_;
}

}  // namespace autoac
