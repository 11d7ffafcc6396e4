// Quantization-aware training (paper §6.1, Table 2): a 2-layer GCN trained
// full-graph with fake-quantized weights and activations (straight-through
// estimator), evaluated at several bitwidths to reproduce the
// accuracy-vs-bits trend (fp32 ≈ 16 ≈ 8 > 4 >> 2).
#pragma once

#include "gnn/layers.hpp"
#include "graph/generator.hpp"

namespace qgtc::gnn {

struct QatConfig {
  i64 hidden = 64;
  int bits = 32;  // 32 disables fake-quant (the FP32 column of Table 2)
  int epochs = 30;
  float lr = 0.1f;
  float momentum = 0.9f;
  float train_frac = 0.6f;
  u64 seed = 42;
};

struct QatResult {
  float train_acc = 0.0f;
  float test_acc = 0.0f;
  std::vector<LayerWeights> weights;  // trained fp32 master weights
};

/// Trains and evaluates; deterministic in cfg.seed alone. The trained
/// weights and accuracies are bit-identical at any OpenMP thread count: every
/// reduction sums in an order fixed by the data shape, not by the threads.
QatResult train_qat_gcn(const Dataset& ds, const QatConfig& cfg);

/// Fake-quantize a matrix at `bits` (identity when bits >= 32): quantize per
/// Eq. 2 then dequantize, so the forward pass sees quantization error while
/// gradients flow straight through.
MatrixF fake_quant(const MatrixF& m, int bits);

}  // namespace qgtc::gnn
