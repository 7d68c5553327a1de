"""Physically-aware 360-degree scene rendering from splat primitives.

Volume rendering of anisotropic Gaussian splats with direction-disentangled
radiance, an attenuation-integral X-ray branch, depth-gradient anchor
sampling, a small fusion head, and a deterministic fitting loop.
"""
from .errors import (
    SplatError, FormatError, SceneFormatError, VolumeFormatError,
    ImageFormatError, ParamsFormatError, InvalidPrimitiveError,
    NumericFailure, CheckFailure,
)
from .scene import (
    Scene, Camera, ImageBuffer, validate_scene,
    make_orbit_cameras, scene_to_json, scene_from_json, load_scene, save_scene,
    make_random_scene,
)
from .renderer import RenderConfig, render
from .imgfile import (
    encode_gamma, decode_gamma, save_ppm, load_ppm, save_pfm, load_pfm,
)
from .metrics import psnr, ssim, ssim_with_grad
from .ct import (
    VoxelVolume, DrrConfig, ProjectionGeometry, hu_to_mu,
    render_drr, save_volume, load_volume,
    make_sphere_phantom,
)
from .anchors import (
    AnchorPoint, AnchorSet, depth_gradient, select_anchors,
    sample_anchor_indices,
    anchor_set_to_json,
)
from .fusion import (
    MlpParams, embed_camera, init_mlp,
    fuse_forward_batch, fuse_backward_batch, save_mlp, load_mlp,
)
from .fitting import (
    FitConfig, FitReport, composite_loss, adam_step, fit_scene,
)

__version__ = "0.1.0"
