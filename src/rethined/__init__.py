"""High-resolution image inpainting: coarse CNN completion, masked patch
self-attention refinement, and attention-reusing high-frequency upscaling."""

from .tensor_ops import (
    BatchNormParams,
    ConvSpec,
    batchnorm,
    bilinear_resize,
    conv2d,
    gaussian_blur,
    gaussian_kernel,
    relu,
    softmax_rows,
)
from .spectral import ComplexGrid, fft1d, fft2d, focal_frequency_loss, ifft2d
from .coarse import CoarseModel, RepBlock, coarse_forward, fuse_block, fuse_model
from .patches import (
    PatchGrid,
    TokenMatrix,
    embed_and_condition,
    hr_patches,
    img2col,
    pixel_shuffle,
    tokenize_mask,
)
from .attention import (
    AllPatchesCorruptedError,
    AttentionMap,
    NpmWeights,
    ProjectionWeights,
    attention_scores,
    coherence,
    mask_attention,
    npm_refine,
    token_mix,
)
from .upscale import (
    FrequencySplit,
    compose_hr,
    frequency_split,
    sigma_for_factor,
)
from .masks import MaskCoverageError, MaskSpec, generate_mask, mask_coverage
from .metrics import l1, psnr, ssim
from .pipeline import (
    InpaintingModel,
    NonFiniteInputError,
    PipelineConfig,
    fuse_pipeline_model,
    load_model,
    random_model,
    run_pipeline,
    run_pipeline_timed,
    save_model,
)
from .weights_io import WeightFormatError, load_tensors, save_tensors
from .image_io import ImageFormatError, read_image, read_mask, write_image, write_mask

__version__ = "0.1.0"
