#include "src/trainsim/workload.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"

namespace stalloc {

namespace {

constexpr uint64_t kBf16 = 2;
constexpr uint64_t kFp32 = 4;

// Emitter drives the logical clock and turns alloc/free calls into completed MemoryEvents.
class Emitter {
 public:
  using Token = size_t;
  static constexpr Token kNoToken = static_cast<Token>(-1);

  explicit Emitter(Trace* trace) : trace_(trace) {}

  PhaseId BeginPhase(PhaseKind kind, int mb, int chunk) {
    STALLOC_CHECK(cur_phase_ == kInvalidPhase, << "nested phases are not allowed");
    PhaseInfo p;
    p.kind = kind;
    p.microbatch = mb;
    p.chunk = chunk;
    p.start = clock_;
    cur_phase_ = trace_->AddPhase(p);
    return cur_phase_;
  }

  void EndPhase() {
    STALLOC_CHECK(cur_phase_ != kInvalidPhase);
    trace_->MutablePhase(cur_phase_).end = clock_;
    cur_phase_ = kInvalidPhase;
  }

  LayerId BeginLayer(std::string name) {
    STALLOC_CHECK(cur_layer_ == kInvalidLayer, << "nested layers are not allowed");
    LayerInfo l;
    l.name = std::move(name);
    l.start = clock_;
    cur_layer_ = trace_->AddLayer(std::move(l));
    return cur_layer_;
  }

  void EndLayer() {
    STALLOC_CHECK(cur_layer_ != kInvalidLayer);
    trace_->MutableLayer(cur_layer_).end = clock_;
    cur_layer_ = kInvalidLayer;
  }

  Token Alloc(uint64_t size, bool dyn = false, StreamId stream = kComputeStream) {
    STALLOC_CHECK(size > 0);
    if (dyn) {
      STALLOC_CHECK(cur_layer_ != kInvalidLayer, << "dynamic alloc outside a layer");
    }
    Open open;
    open.size = size;
    open.ts = clock_++;
    open.ps = cur_phase_;
    open.dyn = dyn;
    open.ls = cur_layer_;
    open.stream = stream;
    open_.push_back(open);
    return open_.size() - 1;
  }

  void Free(Token token) {
    STALLOC_CHECK_LT(token, open_.size());
    Open& open = open_[token];
    STALLOC_CHECK(!open.closed, << "double free of workload token " << token);
    open.closed = true;
    MemoryEvent e;
    e.size = open.size;
    e.ts = open.ts;
    e.te = clock_++;
    e.ps = open.ps;
    e.pe = cur_phase_;
    e.dyn = open.dyn;
    e.stream = open.stream;
    if (open.dyn) {
      STALLOC_CHECK(cur_layer_ != kInvalidLayer, << "dynamic free outside a layer");
      e.ls = open.ls;
      e.le = cur_layer_;
    }
    trace_->AddEvent(e);
  }

  // Alloc immediately followed by free (workspace tensors).
  void Transient(uint64_t size, bool dyn = false, StreamId stream = kComputeStream) {
    Free(Alloc(size, dyn, stream));
  }

  size_t open_count() const {
    size_t n = 0;
    for (const auto& o : open_) {
      if (!o.closed) {
        ++n;
      }
    }
    return n;
  }

 private:
  struct Open {
    uint64_t size = 0;
    LogicalTime ts = 0;
    PhaseId ps = kInvalidPhase;
    bool dyn = false;
    LayerId ls = kInvalidLayer;
    StreamId stream = kComputeStream;
    bool closed = false;
  };

  Trace* trace_;
  LogicalTime clock_ = 0;
  PhaseId cur_phase_ = kInvalidPhase;
  LayerId cur_layer_ = kInvalidLayer;
  std::vector<Open> open_;
};

// Per-configuration activation tensor sizes (bytes). All sequence-major activation tensors shard
// over TP (sequence parallelism assumed, as in Megatron-LM).
struct ActSizes {
  uint64_t sbh = 0;       // [s, b, h] bf16
  uint64_t sbkv = 0;      // [s, b, kv_heads * head_dim] bf16 (K or V projection)
  uint64_t qkv = 0;       // fused [s, b, h + 2*kv] bf16 (recompute buffers)
  uint64_t sbf = 0;       // [s, b, f] bf16
  uint64_t stats = 0;     // flash-attention softmax stats, [b, a, s] fp32
  uint64_t mask = 0;      // dropout mask, [s, b, h] bool
  uint64_t ln_stats = 0;  // layer-norm mean+rstd, [s, b, 2] fp32
  uint64_t tiny = 0;      // sub-512B tensor (scalars, small biases)
  uint64_t logits = 0;    // [s, b, v/tp] bf16
  uint64_t logits32 = 0;  // fp32 logits copy for the loss
};

ActSizes ComputeActSizes(const ModelConfig& m, const TrainConfig& c) {
  const uint64_t s = m.seq_len;
  const uint64_t b = c.micro_batch_size;
  const uint64_t t = static_cast<uint64_t>(c.parallel.tp);
  const uint64_t kv = static_cast<uint64_t>(m.num_kv_heads) * m.head_dim();
  ActSizes a;
  a.sbh = s * b * m.hidden * kBf16 / t;
  a.sbkv = s * b * std::max<uint64_t>(kv, m.head_dim()) * kBf16 / t;
  a.qkv = s * b * (m.hidden + 2 * kv) * kBf16 / t;
  a.sbf = s * b * m.ffn_hidden * kBf16 / t;
  a.stats = b * static_cast<uint64_t>(m.num_heads) * s * kFp32 / t;
  a.mask = s * b * m.hidden / t;  // 1 byte per element
  a.ln_stats = s * b * 2 * kFp32;
  a.tiny = 256;
  a.logits = s * b * m.vocab * kBf16 / t;
  a.logits32 = s * b * m.vocab * kFp32 / t;
  return a;
}

// MoE activation sizing for one expert given its routed token count. The expert FFN dimension
// shards over TP (Megatron-style expert tensor parallelism); token counts do not.
struct ExpertSizes {
  uint64_t input = 0;    // [tokens, h]
  uint64_t fc1 = 0;      // [tokens, ef/tp] (x2 when gated)
  uint64_t act = 0;      // [tokens, ef/tp]
  uint64_t output = 0;   // [tokens, h]
};

ExpertSizes ComputeExpertSizes(const ModelConfig& m, uint64_t tokens, uint64_t tp) {
  ExpertSizes e;
  e.input = std::max<uint64_t>(1, tokens * m.hidden * kBf16);
  e.fc1 = std::max<uint64_t>(1, tokens * m.moe.expert_ffn * kBf16 / tp);
  e.act = e.fc1;
  e.output = e.input;
  return e;
}

}  // namespace

std::string TrainShapeError(const ModelConfig& model, const TrainConfig& config) {
  const ParallelConfig& p = config.parallel;
  if (p.tp < 1 || p.pp < 1 || p.dp < 1 || p.ep < 1 || p.vpp_chunks < 1) {
    return "parallel degrees (tp/pp/dp/ep/vpp) must all be >= 1";
  }
  if (config.micro_batch_size < 1 || config.num_microbatches < 1) {
    return "microbatch size and count must be >= 1";
  }
  if (config.rank < 0 || config.rank >= p.pp) {
    return "rank " + std::to_string(config.rank) + " out of range [0, pp)";
  }
  const int64_t stages = static_cast<int64_t>(p.pp) * p.vpp_chunks;
  if (model.num_layers % stages != 0) {
    return model.name + " has " + std::to_string(model.num_layers) +
           " layers, which do not split evenly over pp x vpp = " + std::to_string(stages);
  }
  if (model.moe.enabled() && model.moe.num_experts % p.ep != 0) {
    return model.name + " has " + std::to_string(model.moe.num_experts) +
           " experts, which do not split evenly over ep = " + std::to_string(p.ep);
  }
  if (p.vpp_chunks > 1 && config.opt.schedule == PipelineSchedule::kGPipe) {
    return "the GPipe schedule does not interleave virtual chunks (vpp must be 1)";
  }
  if (p.vpp_chunks > 1 && config.num_microbatches % p.pp != 0) {
    return "the interleaved schedule (vpp > 1) needs num_microbatches (" +
           std::to_string(config.num_microbatches) + ") divisible by pp (" +
           std::to_string(p.pp) + ")";
  }
  return "";
}

WorkloadBuilder::WorkloadBuilder(ModelConfig model, TrainConfig config)
    : model_(std::move(model)), config_(config) {
  const std::string error = TrainShapeError(model_, config_);
  STALLOC_CHECK(error.empty(), << error);
}

std::vector<int> WorkloadBuilder::LayersOfChunk(int chunk) const {
  const int pp = config_.parallel.pp;
  const int chunks = config_.parallel.vpp_chunks;
  const int per_chunk = model_.num_layers / (pp * chunks);
  // Megatron interleaving: model chunk index = chunk * pp + rank.
  const int global_chunk = chunk * pp + config_.rank;
  std::vector<int> layers;
  for (int i = 0; i < per_chunk; ++i) {
    layers.push_back(global_chunk * per_chunk + i);
  }
  return layers;
}

bool WorkloadBuilder::HasEmbedding() const { return config_.rank == 0; }

bool WorkloadBuilder::HasLmHead() const { return config_.rank == config_.parallel.pp - 1; }

Trace WorkloadBuilder::Build(uint64_t iteration_seed) const {
  const ModelConfig& m = model_;
  const TrainConfig& c = config_;
  const ActSizes act = ComputeActSizes(m, c);
  const uint64_t tp = static_cast<uint64_t>(c.parallel.tp);
  const uint64_t dp = static_cast<uint64_t>(c.parallel.dp);
  const int chunks = c.parallel.vpp_chunks;
  const bool recompute = c.opt.recompute == RecomputeMode::kFull;
  const bool sel_recompute = c.opt.recompute == RecomputeMode::kSelective;
  const bool offload = c.opt.offload;
  const bool gathered_weights = c.opt.zero == ZeroStage::kStage3;
  Rng rng(iteration_seed);

  Trace trace;
  trace.set_name(m.name + "/" + c.opt.Tag() + (chunks > 1 ? "+vpp" : "") + "/mb" +
                 std::to_string(c.micro_batch_size));
  Emitter em(&trace);

  // ------------------------------------------------------------------ init: persistent tensors
  em.BeginPhase(PhaseKind::kIterInit, -1, -1);
  std::vector<Emitter::Token> persistent;
  uint64_t params_on_rank = 0;

  auto persist = [&](uint64_t size) {
    if (size > 0) {
      persistent.push_back(em.Alloc(size));
    }
  };

  const uint64_t weight_div = gathered_weights ? tp * dp : tp;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    for (int layer : LayersOfChunk(chunk)) {
      const uint64_t h = m.hidden;
      const uint64_t kv = static_cast<uint64_t>(m.num_kv_heads) * m.head_dim();
      // Attention weights (sharded over TP; over DP too at ZeRO-3).
      persist((h * h + 2 * h * kv) * kBf16 / weight_div);  // QKV
      persist(h * h * kBf16 / weight_div);                 // output projection
      if (m.IsMoeLayer(layer)) {
        persist(h * static_cast<uint64_t>(m.moe.num_experts) * kBf16);  // router
        const int local_experts = m.moe.num_experts / c.parallel.ep;
        const uint64_t mats = m.gated_mlp ? 3 : 2;
        for (int e = 0; e < local_experts; ++e) {
          persist(mats * h * m.moe.expert_ffn * kBf16 / (gathered_weights ? dp : 1));
        }
        params_on_rank += (h * h + 2 * h * kv + h * h) / tp +
                          static_cast<uint64_t>(local_experts) * mats * h * m.moe.expert_ffn;
      } else {
        const uint64_t mats = m.gated_mlp ? 3 : 2;
        for (uint64_t w = 0; w < mats; ++w) {
          persist(h * m.ffn_hidden * kBf16 / weight_div);
        }
        persist(h * kFp32);  // layer norms (small)
        params_on_rank += m.ParamsPerLayer() / tp;
      }
    }
  }
  if (HasEmbedding() || HasLmHead()) {
    persist(m.vocab * m.hidden * kBf16 / weight_div);
    params_on_rank += m.vocab * m.hidden / tp;
  }
  // Gradient buffer: fp32 main grads, contiguous per chunk (Megatron). Sharded from ZeRO-2.
  const uint64_t grad_div = c.opt.zero >= ZeroStage::kStage2 ? dp : 1;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    persist(std::max<uint64_t>(1, params_on_rank / chunks * kFp32 / grad_div));
  }
  // Optimizer state: fp32 master params + Adam m/v. Sharded over DP from ZeRO-1 on.
  const uint64_t opt_div = c.opt.zero >= ZeroStage::kStage1 ? dp : 1;
  persist(std::max<uint64_t>(1, params_on_rank * kFp32 / opt_div));  // master weights
  persist(std::max<uint64_t>(1, params_on_rank * kFp32 / opt_div));  // exp_avg
  persist(std::max<uint64_t>(1, params_on_rank * kFp32 / opt_div));  // exp_avg_sq
  // Rotary embedding cache and a couple of tiny persistent buffers.
  persist(m.seq_len * m.head_dim() * kFp32);
  persist(act.tiny);
  em.EndPhase();

  // -------------------------------------------------------- per-microbatch bookkeeping tables
  // Saved (scoped) activation tokens per (mb, chunk), bucketed by the producing layer so the
  // backward pass frees each layer's tensors inside that layer's module scope, in reverse
  // order (Fig. 4). Key kHeadLayer holds the LM-head tensors.
  constexpr int kHeadLayer = 1 << 20;
  std::map<std::pair<int, int>, std::map<int, std::vector<Emitter::Token>>> saved;
  // MoE routing: token counts per (mb, layer), sampled in forward, reused in backward.
  std::map<std::pair<int, int>, std::vector<uint64_t>> routed_tokens;

  const int local_experts = m.moe.enabled() ? m.moe.num_experts / c.parallel.ep : 0;
  const uint64_t avg_tokens =
      m.moe.enabled()
          ? std::max<uint64_t>(8, m.seq_len * c.micro_batch_size *
                                      static_cast<uint64_t>(m.moe.top_k) /
                                      static_cast<uint64_t>(m.moe.num_experts))
          : 0;

  auto sample_tokens = [&](int mb, int layer) -> std::vector<uint64_t>& {
    auto key = std::make_pair(mb, layer);
    auto it = routed_tokens.find(key);
    if (it != routed_tokens.end()) {
      return it->second;
    }
    std::vector<uint64_t> tokens(static_cast<size_t>(local_experts));
    for (auto& t : tokens) {
      // Routing imbalance: +-40% around the mean, rounded to 8-token groups.
      const double factor = 0.6 + 0.8 * rng.NextDouble();
      t = std::max<uint64_t>(8, AlignUp(static_cast<uint64_t>(avg_tokens * factor), 8));
    }
    return routed_tokens.emplace(key, std::move(tokens)).first->second;
  };

  // Per-layer transient weight gather at ZeRO-3 (full weights materialized for the layer).
  auto zero3_gather = [&](int layer) -> Emitter::Token {
    if (!gathered_weights) {
      return Emitter::kNoToken;
    }
    const uint64_t layer_params =
        (m.IsMoeLayer(layer) ? m.ParamsPerMoeLayer() : m.ParamsPerLayer()) / tp;
    return em.Alloc(layer_params * kBf16);
  };

  // ----------------------------------------------------------- forward pass of one (mb, chunk)
  auto emit_forward = [&](int mb, int chunk) {
    auto& saved_list = saved[{mb, chunk}];
    const auto layers = LayersOfChunk(chunk);
    const bool first_chunk_on_first_stage = HasEmbedding() && chunk == 0;
    const bool last_chunk_on_last_stage = HasLmHead() && chunk == chunks - 1;

    if (first_chunk_on_first_stage) {
      em.Transient(m.seq_len * c.micro_batch_size * 8);  // token ids + position ids
    } else if (c.parallel.pp > 1) {
      // Pipeline recv staging for the incoming activation, issued on the P2P stream.
      em.Transient(act.sbh, /*dyn=*/false, kP2pStream);
    }

    for (int layer : layers) {
      em.BeginLayer("fwd/mb" + std::to_string(mb) + "/l" + std::to_string(layer));
      const Emitter::Token gathered = zero3_gather(layer);
      // Tensors produced by this layer's forward. With full recomputation everything but the
      // layer input is freed before the phase ends; selective recomputation frees only the
      // attention-internal tensors; with offload everything is freed at layer end
      // ("transferred to host") and re-materialized in the backward phase.
      std::vector<Emitter::Token> layer_saved;
      std::vector<Emitter::Token> attn_internal;
      auto produce = [&](uint64_t size, bool dyn = false) {
        layer_saved.push_back(em.Alloc(size, dyn));
      };
      auto produce_attn = [&](uint64_t size) {
        // Attention-internal: discarded in the forward pass under selective recomputation.
        if (sel_recompute) {
          attn_internal.push_back(em.Alloc(size));
        } else {
          produce(size);
        }
      };

      // Layer input (residual stream) is always kept for the backward pass.
      const Emitter::Token input_token = em.Alloc(act.sbh);
      // Attention.
      produce(act.sbh);        // ln1 out
      produce(act.ln_stats);   // ln1 mean+rstd
      produce_attn(act.sbh);   // Q projection
      produce_attn(act.sbkv);  // K projection
      produce_attn(act.sbkv);  // V projection
      em.Transient(act.sbh);   // rope workspace
      produce_attn(act.stats); // flash-attention softmax stats
      produce_attn(act.sbh);   // attention context
      produce(act.sbh);        // attention output projection
      produce(act.mask);       // attention-output dropout mask
      em.Transient(act.tiny);
      // MLP or MoE experts.
      if (m.IsMoeLayer(layer)) {
        em.Transient(m.seq_len * c.micro_batch_size * static_cast<uint64_t>(m.moe.num_experts) *
                     kFp32 / tp);  // router logits
        if (c.parallel.ep > 1) {
          // All-to-all dispatch staging on the A2A stream.
          em.Transient(m.seq_len * c.micro_batch_size * static_cast<uint64_t>(m.moe.top_k) *
                           m.hidden * kBf16 / tp,
                       /*dyn=*/false, kA2aStream);
        }
        produce(m.seq_len * c.micro_batch_size * static_cast<uint64_t>(m.moe.top_k) * m.hidden *
                kBf16 / tp);  // permuted dispatch buffer
        const auto& tokens = sample_tokens(mb, layer);
        for (int e = 0; e < local_experts; ++e) {
          const ExpertSizes es = ComputeExpertSizes(m, tokens[static_cast<size_t>(e)], tp);
          produce(es.input, /*dyn=*/true);
          produce(es.fc1, /*dyn=*/true);
          if (m.gated_mlp) {
            produce(es.fc1, /*dyn=*/true);
          }
          produce(es.act, /*dyn=*/true);
          produce(es.output, /*dyn=*/true);
        }
        produce(act.sbh);  // combined (unpermuted) output
      } else {
        produce(act.sbh);       // ln2 out
        produce(act.ln_stats);  // ln2 mean+rstd
        produce(act.sbf);       // fc1 / gate
        if (m.gated_mlp) {
          produce(act.sbf);  // up projection
        }
        produce(act.sbf);       // activation fn output
        em.Transient(act.sbf);  // activation workspace
        produce(act.mask);      // mlp dropout mask
      }

      if (sel_recompute) {
        // Attention internals are recomputed in the backward pass; the rest stays resident.
        for (auto it = attn_internal.rbegin(); it != attn_internal.rend(); ++it) {
          em.Free(*it);
        }
        saved_list[layer].push_back(input_token);
        for (auto t : layer_saved) {
          saved_list[layer].push_back(t);
        }
      } else if (recompute) {
        // Only the layer input survives; everything else is recomputed in the backward pass.
        for (auto it = layer_saved.rbegin(); it != layer_saved.rend(); ++it) {
          em.Free(*it);
        }
        saved_list[layer].push_back(input_token);
      } else if (offload) {
        // Tensors are transferred to host and freed at the end of the layer.
        for (auto it = layer_saved.rbegin(); it != layer_saved.rend(); ++it) {
          em.Free(*it);
        }
        em.Free(input_token);  // input offloaded as well
      } else {
        saved_list[layer].push_back(input_token);
        for (auto t : layer_saved) {
          saved_list[layer].push_back(t);
        }
      }
      if (gathered != Emitter::kNoToken) {
        em.Free(gathered);
      }
      em.EndLayer();
    }

    if (!last_chunk_on_last_stage && c.parallel.pp > 1) {
      // Pipeline send staging for the outgoing activation.
      em.Transient(act.sbh, /*dyn=*/false, kP2pStream);
    }
    if (last_chunk_on_last_stage) {
      em.BeginLayer("fwd/mb" + std::to_string(mb) + "/head");
      em.Transient(act.logits32);  // fp32 logits for the loss computation
      if (recompute || offload) {
        em.Transient(act.logits);
      } else {
        saved_list[kHeadLayer].push_back(em.Alloc(act.logits));  // kept for the loss backward
      }
      em.Transient(act.tiny);  // loss scalar
      em.EndLayer();
    }
  };

  // ---------------------------------------------------------- backward pass of one (mb, chunk)
  auto emit_backward = [&](int mb, int chunk) {
    auto& saved_list = saved[{mb, chunk}];
    const auto layers = LayersOfChunk(chunk);
    const bool last_chunk_on_last_stage = HasLmHead() && chunk == chunks - 1;

    if (!last_chunk_on_last_stage && c.parallel.pp > 1) {
      // Gradient recv staging from the next stage.
      em.Transient(act.sbh, /*dyn=*/false, kP2pStream);
    }
    if (last_chunk_on_last_stage) {
      em.BeginLayer("bwd/mb" + std::to_string(mb) + "/head");
      em.Transient(act.logits);  // dlogits
      if (auto it = saved_list.find(kHeadLayer); it != saved_list.end()) {
        for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
          em.Free(*rit);
        }
        saved_list.erase(it);
      }
      em.EndLayer();
    }

    // Walk the chunk's layers in reverse.
    for (auto lit = layers.rbegin(); lit != layers.rend(); ++lit) {
      const int layer = *lit;
      em.BeginLayer("bwd/mb" + std::to_string(mb) + "/l" + std::to_string(layer));
      const Emitter::Token gathered = zero3_gather(layer);

      std::vector<Emitter::Token> recomputed;
      if (sel_recompute) {
        // Re-run the attention forward: the internals reappear for the duration of this
        // backward layer.
        recomputed.push_back(em.Alloc(act.sbh));   // Q
        recomputed.push_back(em.Alloc(act.sbkv));  // K
        recomputed.push_back(em.Alloc(act.sbkv));  // V
        recomputed.push_back(em.Alloc(act.stats));
        recomputed.push_back(em.Alloc(act.sbh));   // attention context
      }
      if (recompute || offload) {
        // Re-materialize the forward activations: recomputation re-runs the layer forward;
        // offload transfers the tensors back from the host. Either way the same tensors
        // re-appear, now scoped to this backward layer.
        recomputed.push_back(em.Alloc(act.sbh));       // ln1 out
        recomputed.push_back(em.Alloc(act.ln_stats));
        recomputed.push_back(em.Alloc(act.sbh));       // Q
        recomputed.push_back(em.Alloc(act.sbkv));      // K
        recomputed.push_back(em.Alloc(act.sbkv));      // V
        recomputed.push_back(em.Alloc(act.stats));
        recomputed.push_back(em.Alloc(act.sbh));       // attention context
        recomputed.push_back(em.Alloc(act.sbh));       // attention out
        recomputed.push_back(em.Alloc(act.mask));      // attention dropout mask
        if (m.IsMoeLayer(layer)) {
          recomputed.push_back(em.Alloc(m.seq_len * c.micro_batch_size *
                                        static_cast<uint64_t>(m.moe.top_k) * m.hidden * kBf16 /
                                        tp));
          const auto& tokens = sample_tokens(mb, layer);
          for (int e = 0; e < local_experts; ++e) {
            const ExpertSizes es = ComputeExpertSizes(m, tokens[static_cast<size_t>(e)], tp);
            recomputed.push_back(em.Alloc(es.input, /*dyn=*/true));
            recomputed.push_back(em.Alloc(es.fc1, /*dyn=*/true));
            if (m.gated_mlp) {
              recomputed.push_back(em.Alloc(es.fc1, /*dyn=*/true));
            }
            recomputed.push_back(em.Alloc(es.act, /*dyn=*/true));
            recomputed.push_back(em.Alloc(es.output, /*dyn=*/true));
          }
          recomputed.push_back(em.Alloc(act.sbh));
        } else {
          recomputed.push_back(em.Alloc(act.sbh));       // ln2 out
          recomputed.push_back(em.Alloc(act.ln_stats));
          recomputed.push_back(em.Alloc(act.sbf));       // fc1 / gate
          if (m.gated_mlp) {
            recomputed.push_back(em.Alloc(act.sbf));
          }
          recomputed.push_back(em.Alloc(act.sbf));       // activation fn output
          recomputed.push_back(em.Alloc(act.mask));      // mlp dropout mask
        }
        if (offload) {
          recomputed.push_back(em.Alloc(act.sbh));  // layer input transferred back
          // Host-transfer staging buffer on the offload stream.
          em.Transient(act.sbh, /*dyn=*/false, kOffloadStream);
        }
      }

      // Gradient computation workspaces (transient).
      em.Transient(act.sbh);  // d(attn out)
      if (m.IsMoeLayer(layer)) {
        const auto& tokens = sample_tokens(mb, layer);
        for (int e = 0; e < local_experts; ++e) {
          const ExpertSizes es = ComputeExpertSizes(m, tokens[static_cast<size_t>(e)], tp);
          em.Transient(es.fc1, /*dyn=*/true);   // d(act)
          em.Transient(es.input, /*dyn=*/true); // d(input)
        }
      } else {
        em.Transient(act.sbf);  // d(act)
      }
      em.Transient(act.qkv);   // d(qkv)
      em.Transient(act.sbkv);  // d(k)/d(v) scratch
      em.Transient(act.sbh);   // d(input), handed to the previous layer
      em.Transient(m.hidden * kFp32);  // bias / layer-norm weight grads
      em.Transient(act.tiny);

      // Release re-materialized tensors (reverse order), then this layer's saved tensors in
      // reverse allocation order (Fig. 4).
      for (auto it = recomputed.rbegin(); it != recomputed.rend(); ++it) {
        em.Free(*it);
      }
      if (auto it = saved_list.find(layer); it != saved_list.end()) {
        for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
          em.Free(*rit);
        }
        saved_list.erase(it);
      }
      if (gathered != Emitter::kNoToken) {
        em.Free(gathered);
      }
      em.EndLayer();
    }
    STALLOC_CHECK(saved_list.empty(), << "saved tensors left unfreed after backward");

    // Pipeline dgrad send staging to the previous stage.
    if (c.parallel.pp > 1 && !HasEmbedding()) {
      em.Transient(act.sbh, /*dyn=*/false, kP2pStream);
    }
    // Gradient reduce-scatter / all-reduce bucket, overlapped on the DP communication stream.
    if (c.parallel.dp > 1) {
      const uint64_t bucket =
          std::min<uint64_t>(200 * MiB, std::max<uint64_t>(1, params_on_rank * kFp32 / 8));
      em.Transient(bucket, /*dyn=*/false, kDpCommStream);
    }
  };

  // ------------------------------------------------------------------------- iteration timeline
  std::vector<ScheduleStep> steps;
  if (c.opt.schedule == PipelineSchedule::kGPipe) {
    STALLOC_CHECK(chunks == 1, << "GPipe does not interleave virtual chunks");
    steps = BuildGPipeSchedule(c.num_microbatches);
  } else {
    steps = BuildInterleavedSchedule(c.parallel.pp, c.rank, c.num_microbatches, chunks);
  }
  for (const auto& step : steps) {
    if (step.kind == ScheduleStep::Kind::kForward) {
      em.BeginPhase(PhaseKind::kForward, step.microbatch, step.chunk);
      emit_forward(step.microbatch, step.chunk);
      em.EndPhase();
    } else {
      em.BeginPhase(PhaseKind::kBackward, step.microbatch, step.chunk);
      emit_backward(step.microbatch, step.chunk);
      em.EndPhase();
    }
  }

  // ------------------------------------------------------------------------- optimizer step
  em.BeginPhase(PhaseKind::kOptimizer, -1, -1);
  const uint64_t opt_shard = std::max<uint64_t>(1, params_on_rank * kFp32 / opt_div);
  em.Transient(opt_shard);          // grad norm / unscale workspace
  em.Transient(act.tiny);           // clip coefficient
  if (c.opt.zero >= ZeroStage::kStage1) {
    em.Transient(std::max<uint64_t>(1, params_on_rank * kBf16));  // param all-gather buffer
  }
  // Persistent tensors notionally live beyond the iteration; close them here so the trace is
  // complete. The planner still sees them spanning the entire timeline.
  for (auto t : persistent) {
    em.Free(t);
  }
  em.EndPhase();

  STALLOC_CHECK_EQ(em.open_count(), 0u, << "workload leaked open allocations");
  trace.Validate();
  return trace;
}

MemoryEstimate WorkloadBuilder::Estimate() const {
  const Trace trace = Build(config_.seed);
  MemoryEstimate est;
  uint64_t scoped = 0;  // scoped bytes of all phases, split per forward pass below
  for (uint64_t id = 0; id < trace.size(); ++id) {
    const MemoryEvent e = trace.Event(id);
    switch (trace.Classify(e)) {
      case LifespanClass::kPersistent:
        est.persistent_bytes += e.size;
        break;
      case LifespanClass::kScoped:
        scoped += e.size;
        break;
      case LifespanClass::kTransient:
        break;
    }
  }
  const auto steps = BuildInterleavedSchedule(config_.parallel.pp, config_.rank,
                                              config_.num_microbatches,
                                              config_.parallel.vpp_chunks);
  est.peak_in_flight = PeakInFlight(steps);
  const int total_fb = config_.num_microbatches * config_.parallel.vpp_chunks;
  est.activation_bytes_per_mb = total_fb > 0 ? scoped / static_cast<uint64_t>(total_fb) : 0;
  return est;
}

}  // namespace stalloc
