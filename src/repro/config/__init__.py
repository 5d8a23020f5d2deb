"""Configuration for the Nexus++ machine (Table IV of the paper)."""

from .presets import (
    LADDER,
    contention_free,
    fast_functional,
    nexus_restricted,
    no_prep_delay,
    paper_default,
)
from .system_config import BUS_MODEL_FITTED, BUS_MODEL_FORMULA, SystemConfig

__all__ = [
    "SystemConfig",
    "BUS_MODEL_FORMULA",
    "BUS_MODEL_FITTED",
    "paper_default",
    "contention_free",
    "no_prep_delay",
    "nexus_restricted",
    "fast_functional",
    "LADDER",
]
