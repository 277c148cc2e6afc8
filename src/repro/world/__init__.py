"""Geometry substrate: floorplans, obstacles and walking trajectories."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.world.builder": [
        "apartment_layout", "office_layout", "random_clutter", "store_layout"],
    "repro.world.floorplan": ["Floorplan", "LinkState"],
    "repro.world.geometry": [
        "Segment", "point_segment_distance", "segments_intersect"],
    "repro.world.obstacles": ["MATERIALS", "Material", "Obstacle", "wall"],
    "repro.world.trajectory": [
        "DEFAULT_WALK_SPEED", "Trajectory", "l_shape", "random_waypoint_walk",
        "straight_walk"],
    "repro.types": ["wrap_angle"],
})
