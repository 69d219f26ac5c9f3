"""First quantization estimation for aligned double-compressed JPEG images."""

__version__ = "0.1.0"

from .dctsim import constant_table, reconstruct, standard_table
from .estimator import (
    DEGENERATE,
    OK,
    UNSUPPORTED,
    DistanceMatrix,
    EstimationParams,
    EstimationResult,
    distance_matrix,
    estimate,
    raw_estimates,
    regularize,
)
from .jpegio import (
    JpegError,
    JpegFormatError,
    ParsedJpeg,
    PgmError,
    UnsupportedJpegError,
    crop_center,
    encode_baseline_gray,
    parse_jpeg,
    read_pgm,
)
from .refdata import (
    DatasetFormatError,
    ReferenceDataset,
    SubDataset,
    build_reference,
    deserialize,
    serialize,
)
from .stats import (
    CoeffHistogram,
    LaplacianParams,
    build_histogram,
    fit_laplacian,
    is_degenerate,
)
from .types import CoeffGrid, GrayImage, QuantTable

__all__ = [
    "CoeffGrid",
    "CoeffHistogram",
    "DEGENERATE",
    "DatasetFormatError",
    "DistanceMatrix",
    "EstimationParams",
    "EstimationResult",
    "GrayImage",
    "JpegError",
    "JpegFormatError",
    "LaplacianParams",
    "OK",
    "ParsedJpeg",
    "PgmError",
    "QuantTable",
    "ReferenceDataset",
    "SubDataset",
    "UNSUPPORTED",
    "UnsupportedJpegError",
    "build_histogram",
    "build_reference",
    "constant_table",
    "crop_center",
    "deserialize",
    "distance_matrix",
    "encode_baseline_gray",
    "estimate",
    "fit_laplacian",
    "is_degenerate",
    "parse_jpeg",
    "raw_estimates",
    "read_pgm",
    "reconstruct",
    "regularize",
    "serialize",
    "standard_table",
]
