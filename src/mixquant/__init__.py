"""mixquant: a mixed-precision post-training quantization toolkit.

The pipeline: calibrate activation ranges on a small image set, quantize the
whole graph to int8, measure per-layer weight/activation SQNR and MSE in two
inference passes, rank layers into a sensitivity list, and re-apply mixed
precision on a fused graph IR at any target BOPs reduction.
"""

from .bops import BopsReport, bops, count_macs, macs_by_node
from .calibration import (
    CalibrationProfile,
    RangeProfile,
    activation_qparams,
    profile_activations,
    weight_qparams,
)
from .executor import Executor
from .fusion import FusionGroup, discover_fusion_groups, fuse_conv_bn, fuse_conv_relu, lower_to_stage
from .ir import Graph, Node, QuantParams, Tensor, infer_shapes, topo_sort
from .metrics import SENTINEL_DB, cosine_similarity, kl_divergence, mse, sqnr, sqnr_delta
from .model_io import gen_images, gen_synthetic, load_images, load_model, save_images, save_model
from .quantizer import (
    apply_mixed_precision,
    count_qdq,
    dequantize,
    precision_config,
    quantize_affine,
    select_dequant_set,
)
from .sensitivity import (
    MetricSample,
    SensitivityList,
    baseline_order,
    generate_sensitivity_list,
    mean_logit_sqnr,
    rank_layers_by_sensitivity,
    reference_pass,
)

__version__ = "0.1.0"
