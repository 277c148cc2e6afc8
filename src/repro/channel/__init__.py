"""RF channel substrate: path loss, shadowing, fading, receiver noise."""

from repro.channel.environment import (
    ENV_PROFILES, EnvProfile, EnvRealization, realize_env,
)
from repro.channel.fading import (
    ADVERTISING_CHANNELS,
    ENV_K_FACTOR_DB,
    FrequencySelectiveFading,
    RicianFading,
)
from repro.channel.link import LinkObservation, RadioLink
from repro.channel.pathloss import (
    DEFAULT_GAMMA_DBM,
    ENV_EXPONENTS,
    PathLossModel,
    distance_for_rss,
    rss_at,
)
from repro.channel.shadowing import ShadowingProcess

__all__ = [
    "ENV_PROFILES", "EnvProfile", "EnvRealization", "realize_env",
    "ADVERTISING_CHANNELS", "ENV_K_FACTOR_DB", "FrequencySelectiveFading",
    "RicianFading", "LinkObservation", "RadioLink",
    "DEFAULT_GAMMA_DBM", "ENV_EXPONENTS", "PathLossModel",
    "distance_for_rss", "rss_at", "ShadowingProcess",
]
