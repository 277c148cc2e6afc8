"""Navigation mode: dead-reckoning guidance toward an estimate (Sec. 7.3).

In measure mode LocBLE produces a target position in the measurement frame;
in navigation mode it guides the user there with "standard dead-reckoning
with a step counter" [31]. :class:`Navigator` is the pure guidance math —
given where dead reckoning says the user is and which way they face, emit
the turn-and-walk instruction — plus the paper's two refinements:

* **periodic re-estimation** — the estimate sharpens as the user approaches
  (Fig. 12b), handled by re-running the pipeline on the growing trace;
* **last-metre proximity snap** (Sec. 9.2, future work implemented here) —
  inside ``proximity_snap_range`` the guidance switches to plain proximity
  ranging, which "demonstrates fairly good accuracy within 2 m".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.types import LocationEstimate, Vec2, wrap_angle

__all__ = ["Instruction", "Navigator"]


@dataclass(frozen=True)
class Instruction:
    """One guidance step: turn by ``turn_rad`` then walk ``distance_m``."""

    turn_rad: float
    distance_m: float
    arrived: bool
    proximity_mode: bool = False

    @property
    def turn_deg(self) -> float:
        return math.degrees(self.turn_rad)


@dataclass
class Navigator:
    """Guidance toward a measurement-frame target estimate."""

    arrival_radius_m: float = 0.5
    max_leg_m: float = 2.0
    proximity_snap_range_m: float = 2.0
    use_proximity_snap: bool = False

    def instruction(
        self,
        position: Vec2,
        heading_rad: float,
        estimate: LocationEstimate,
        proximity_distance_m: Optional[float] = None,
    ) -> Instruction:
        """Next instruction from the user's dead-reckoned pose.

        ``proximity_distance_m`` is a live proximity-range reading (metres)
        used only when the snap extension is on and the user is close.
        """
        to_target = estimate.position - position
        distance = to_target.norm()

        proximity_mode = (
            self.use_proximity_snap
            and proximity_distance_m is not None
            and distance <= self.proximity_snap_range_m
        )
        if proximity_mode:
            distance = proximity_distance_m

        if distance <= self.arrival_radius_m:
            return Instruction(0.0, 0.0, arrived=True,
                               proximity_mode=proximity_mode)

        turn = wrap_angle(to_target.heading() - heading_rad)
        leg = min(distance, self.max_leg_m)
        return Instruction(turn, leg, arrived=False,
                           proximity_mode=proximity_mode)

    def waypoint_after(
        self, position: Vec2, heading_rad: float, instruction: Instruction
    ) -> Tuple[Vec2, float]:
        """Where the user stands (pose) after following an instruction."""
        if instruction.arrived:
            return position, heading_rad
        new_heading = heading_rad + instruction.turn_rad
        return (
            position + Vec2.from_polar(instruction.distance_m, new_heading),
            new_heading,
        )
