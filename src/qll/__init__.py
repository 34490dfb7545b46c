"""Quantized-label learning at desk scale.

Ambiguous instances carry ground-truth soft labels; what training observes
is a quantized hard label sampled from that distribution. This package
generates such datasets by mixing clean examples (Mixup / PatchMix), trains
classifiers on them with a class-wise positive-unlabeled risk driven by a
stochastic scaled Jensen-Shannon loss (plus standard robust-loss baselines),
and wraps everything in a deterministic, reproducible experiment harness.
"""

from .core import (
    AmbiguousDataset,
    ClassPriors,
    GenMeta,
    RngStream,
    STREAM_ALPHA,
    STREAM_BATCHING,
    STREAM_DATAGEN,
    STREAM_INIT,
    SoftLabel,
    entropy,
    quantize_label,
    quantize_labels,
    zero_one_test_risk,
)
from .datagen import (
    BaseSpec,
    BlockAssignment,
    MixSpec,
    MixWeights,
    block_bounds,
    generate_ambiguous_dataset,
    mixed_soft_labels,
    sample_block_assignment,
    sample_mix_weights,
    synth_base,
)
from .dataio import load_dataset, save_dataset
from .losses import (
    BinaryLossKind,
    MulticlassLossKind,
    baseline_loss_batch,
    binary_loss,
    binary_loss_grad,
    kl_div,
    sample_alpha,
    scaled_sjs,
    sjs_div,
    sjs_scale,
)
from .models import (
    LinearModel,
    MlpModel,
    backward,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
)
from .risk import (
    ClassRiskBreakdown,
    CpuRiskReport,
    cpu_risk,
    cpu_risk_grad,
    cpu_risk_with_grad,
)
from .training import (
    TrainConfig,
    TrainReport,
    evaluate,
    sgd_step,
    train,
    train_runs,
    write_metrics,
)

__version__ = "0.1.0"
