"""RF channel substrate: path loss, shadowing, fading, receiver noise."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.channel.environment": [
        "ENV_PROFILES", "EnvProfile", "EnvRealization", "realize_env"],
    "repro.channel.fading": [
        "ADVERTISING_CHANNELS", "ENV_K_FACTOR_DB", "FrequencySelectiveFading",
        "RicianFading"],
    "repro.channel.link": ["LinkObservation", "RadioLink"],
    "repro.channel.pathloss": [
        "DEFAULT_GAMMA_DBM", "ENV_EXPONENTS", "PathLossModel",
        "distance_for_rss", "rss_at"],
    "repro.channel.shadowing": ["ShadowingProcess"],
})
