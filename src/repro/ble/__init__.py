"""BLE protocol substrate: device profiles, advertising schedule, scanner model."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ble.advertiser": ["Advertiser", "AdvertisingEvent"],
    "repro.ble.devices": [
        "BEACONS", "PHONES", "BeaconProfile", "PhoneProfile"],
    "repro.ble.interference": [
        "CrowdInterference", "crowding_loss_probability"],
    "repro.ble.scanner": ["Scanner", "resample_trace"],
})
