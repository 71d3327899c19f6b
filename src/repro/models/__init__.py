"""The evaluated models (Table V), built with deterministic synthetic weights.

Performance depends on tensor shapes, datatypes and schedules — not on the
trained weight values — so each builder creates the exact architecture with
seeded random weights.  MAC and weight counts are checked against Table V:

    MobileNet-V1        0.57 B MACs    4.2 M weights
    ResNet-50-V1.5      4.1 B MACs    26.0 M weights
    SSD-MobileNet-V1    1.2 B MACs     6.8 M weights
    GNMT                3.9 B MACs   131 M weights (25-word sentences)
"""

from repro.models.gnmt import build_gnmt
from repro.models.mobilenet import build_mobilenet_v1
from repro.models.resnet import build_resnet50_v15
from repro.models.ssd import build_ssd_mobilenet_v1
from repro.models.zoo import PAPER_CHARACTERISTICS, ModelInfo, sample_input

__all__ = [
    "ModelInfo",
    "PAPER_CHARACTERISTICS",
    "build_gnmt",
    "build_mobilenet_v1",
    "build_resnet50_v15",
    "build_ssd_mobilenet_v1",
    "sample_input",
]
