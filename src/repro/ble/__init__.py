"""BLE protocol substrate: device profiles, advertising schedule, scanner model."""

from repro.ble.advertiser import Advertiser, AdvertisingEvent
from repro.ble.devices import BEACONS, PHONES, BeaconProfile, PhoneProfile
from repro.ble.interference import CrowdInterference, crowding_loss_probability
from repro.ble.scanner import Scanner, resample_trace

__all__ = [
    "Advertiser", "AdvertisingEvent", "BEACONS", "PHONES", "BeaconProfile",
    "PhoneProfile", "Scanner", "resample_trace",
    "CrowdInterference", "crowding_loss_probability",
]
