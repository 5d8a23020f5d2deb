"""Configuration for the Nexus++ machine (Table IV of the paper)."""

from .presets import LADDER
from .system_config import BUS_MODEL_FITTED, BUS_MODEL_FORMULA, SystemConfig

__all__ = [
    "SystemConfig",
    "BUS_MODEL_FORMULA",
    "BUS_MODEL_FITTED",
    "LADDER",
]
