"""Blind watermarking for regular-grid 3D models.

A binary image is scrambled with the Arnold cat map and embedded into
level-3 Haar detail coefficients of the model's coordinate matrices by
remainder quantization; a Mamdani fuzzy system over local curvature,
area, and bumpiness sets how far each block's coefficients move toward
their quantized values.  Extraction is blind: the watermarked model plus
the embedding config is enough, and it reads every slot with no fuzzy
inference.
"""

from .arnold import period, scramble, unscramble
from .attacks import (
    AttackSpec,
    Registration,
    apply,
    apply_registration,
    crop,
    format_attack,
    kernel_gaussian,
    kernel_log,
    parse_attack,
    random_noise,
    rotate,
    salt_pepper,
    scale,
    smooth_gaussian,
    smooth_laplacian,
    smooth_log,
    translate,
)
from .codec import (
    EmbedConfig,
    SlotMap,
    config_hash,
    embed,
    extract,
    load_config,
    normalization_scale,
    quantize_embed_bit,
    read_bit,
    save_config,
)
from .errors import (
    BadParameterError,
    DegenerateInputError,
    DegenerateModelError,
    DimensionError,
    DimensionMismatchError,
    EmptyAggregateError,
    GridmarkError,
    InsufficientCapacityError,
    MalformedFileError,
    NonFiniteValueError,
    NotSquareError,
    RuleSyntaxError,
    UnknownIdentifierError,
)
from .features import (
    FeatureField,
    WeightField,
    compute_weights,
    normalize_features,
    raw_features,
    reference_surface,
)
from .fuzzy import (
    FuzzySystem,
    FuzzyVariable,
    MembershipFunction,
    Rule,
    evaluate,
    evaluate_many,
    format_rules,
    make_system,
    parse_rules,
    triangular,
    trapezoidal,
)
from .metrics import ber, corr2, psnr
from .model_io import (
    MODEL_KINDS,
    GridModel,
    WatermarkBitmap,
    export_obj,
    generate_model,
    load_model,
    load_watermark,
    save_model,
    save_watermark,
    validate_model,
)
from .wavelet import (
    ALL_LEVEL3_BANDS,
    EMBED_BANDS,
    DetailTree,
    QuadBands,
    decompose3,
    dwt2,
    idwt2,
    reconstruct3,
    tree_energy,
)

__version__ = "0.1.0"
