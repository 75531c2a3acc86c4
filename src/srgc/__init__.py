"""srgc: graph-based light-field compression with super-ray grouping.

The codec segments the reference view into super-pixels, projects the
labels to all views by median disparity to form super-rays, transforms
each super-ray's local graph signal with the Laplacian eigenbasis, and
groups spectrally similar coarsened super-rays so the decoder runs one
eigendecomposition per group instead of one per super-ray.
"""

from .bench import RDPoint, bpp, psnr, rd_sweep
from .bitstream import Bitstream, deserialize, serialize
from .codec import CodecConfig, DecodeReport, EncodeReport, decode, encode
from .errors import SrgcError
from .grouping import (
    GroupSet,
    pairwise_mse,
    predict_and_residual,
    select_main,
    select_threshold,
)
from .lightfield import (
    DisparityMap,
    LightField,
    View,
    load_disparity,
    load_light_field,
    parse_scene_spec,
    save_disparity,
    save_light_field,
    synthesize_light_field,
)
from .segmentation import (
    SegmentationMap,
    SuperRay,
    project_labels,
    slic_segment,
)
from .spectral import (
    EigenBasis,
    Laplacian,
    LocalGraph,
    coarsen,
    eigendecompose,
    eigendecompose_all,
    laplacian,
    partition_super_ray,
)
from .transform import gft, igft, quantize

__version__ = "0.1.0"
