"""Energy-based pixel labeling games with image enhancement, mixture-model
data terms, feature selection, and a small triplet-loss scene classifier."""

from .image import (
    DisplacementLabelSet,
    Image,
    LabelField,
    PnmError,
    PnmHeaderError,
    PnmMaxvalError,
    PnmPayloadError,
    gen_scene,
    read_pnm,
    scene_template,
    write_pnm,
)
from .mrf import (
    EnergyModel,
    SmoothnessField,
    build_registration_game,
    build_segmentation_game,
    ellipticity_check,
    energy_of,
    exhaustive_oracle,
    nash_check,
    smoothness_residual,
    solve_anneal,
    solve_icm,
)

__all__ = [
    "DisplacementLabelSet",
    "EnergyModel",
    "Image",
    "LabelField",
    "PnmError",
    "PnmHeaderError",
    "PnmMaxvalError",
    "PnmPayloadError",
    "SmoothnessField",
    "build_registration_game",
    "build_segmentation_game",
    "ellipticity_check",
    "energy_of",
    "exhaustive_oracle",
    "gen_scene",
    "nash_check",
    "read_pnm",
    "scene_template",
    "smoothness_residual",
    "solve_anneal",
    "solve_icm",
    "write_pnm",
]

__version__ = "0.1.0"
