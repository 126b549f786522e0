"""Walls, boxes, rooms: intersection and containment semantics."""

import numpy as np
import pytest

from repro.geometry import CONCRETE, WOOD, Box, Room, Wall, vec3


@pytest.fixture()
def wall():
    return Wall(start=vec3(0, 0), end=vec3(0, 4), material=CONCRETE, z_max=3.0)


class TestWall:
    def test_segment_crossing_detected(self, wall):
        hit = wall.intersect_segment(vec3(-1, 2, 1), vec3(1, 2, 1))
        assert hit is not None
        assert hit == pytest.approx([0.0, 2.0, 1.0])

    def test_segment_missing_footprint(self, wall):
        assert wall.intersect_segment(vec3(-1, 5, 1), vec3(1, 5, 1)) is None

    def test_segment_parallel(self, wall):
        assert wall.intersect_segment(vec3(1, 0, 1), vec3(1, 4, 1)) is None

    def test_segment_above_wall(self, wall):
        assert wall.intersect_segment(vec3(-1, 2, 4.0), vec3(1, 2, 4.0)) is None

    def test_segment_crossing_at_slant_height(self, wall):
        # Crosses x=0 at z interpolated between endpoints.
        hit = wall.intersect_segment(vec3(-1, 2, 0.5), vec3(1, 2, 2.5))
        assert hit is not None
        assert hit[2] == pytest.approx(1.5)

    def test_endpoint_on_wall_not_blocked(self, wall):
        # A device mounted on the wall is not blocked by it.
        assert wall.intersect_segment(vec3(0, 2, 1), vec3(1, 2, 1)) is None

    def test_mirror_point_reflects_across_plane(self, wall):
        mirrored = wall.mirror_point(vec3(2, 1, 1.5))
        assert mirrored == pytest.approx([-2.0, 1.0, 1.5])

    def test_mirror_is_involution(self, wall):
        p = vec3(1.3, 2.7, 0.8)
        assert wall.mirror_point(wall.mirror_point(p)) == pytest.approx(list(p))

    def test_length(self, wall):
        assert wall.length == pytest.approx(4.0)

    def test_contains_footprint_point(self, wall):
        assert wall.contains_footprint_point(vec3(0, 2, 1))
        assert not wall.contains_footprint_point(vec3(0, 5, 1))
        assert not wall.contains_footprint_point(vec3(1, 2, 1))

    def test_degenerate_wall_rejected(self):
        with pytest.raises(ValueError):
            Wall(start=vec3(1, 1), end=vec3(1, 1), material=CONCRETE)
        with pytest.raises(ValueError):
            Wall(start=vec3(0, 0), end=vec3(1, 0), material=CONCRETE, z_max=0.0)


class TestBox:
    def test_segment_through_box(self):
        box = Box(vec3(1, 1, 0), vec3(2, 2, 2), WOOD)
        assert box.intersects_segment(vec3(0, 1.5, 1), vec3(3, 1.5, 1))

    def test_segment_over_box(self):
        box = Box(vec3(1, 1, 0), vec3(2, 2, 1.0), WOOD)
        assert not box.intersects_segment(vec3(0, 1.5, 1.5), vec3(3, 1.5, 1.5))

    def test_segment_beside_box(self):
        box = Box(vec3(1, 1, 0), vec3(2, 2, 2), WOOD)
        assert not box.intersects_segment(vec3(0, 3, 1), vec3(3, 3, 1))

    def test_segment_ending_before_box(self):
        box = Box(vec3(5, 0, 0), vec3(6, 1, 1), WOOD)
        assert not box.intersects_segment(vec3(0, 0.5, 0.5), vec3(4, 0.5, 0.5))

    def test_diagonal_crossing(self):
        box = Box(vec3(1, 1, 0), vec3(2, 2, 2), WOOD)
        assert box.intersects_segment(vec3(0, 0, 0.1), vec3(3, 3, 1.9))

    def test_contains(self):
        box = Box(vec3(0, 0, 0), vec3(1, 1, 1), WOOD)
        assert box.contains(vec3(0.5, 0.5, 0.5))
        assert not box.contains(vec3(1.5, 0.5, 0.5))

    def test_translated(self):
        box = Box(vec3(0, 0, 0), vec3(1, 1, 1), WOOD, name="b")
        moved = box.translated(vec3(2, 0, 0))
        assert moved.lo == pytest.approx([2, 0, 0])
        assert moved.name == "b"

    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            Box(vec3(1, 1, 1), vec3(0, 2, 2), WOOD)


class TestRoom:
    def test_contains_and_margin(self):
        room = Room("r", 0, 4, 0, 3)
        assert room.contains(vec3(2, 1.5))
        assert not room.contains(vec3(5, 1.5))
        assert not room.contains(vec3(0.1, 1.5), margin=0.5)

    def test_area_and_center(self):
        room = Room("r", 0, 4, 0, 3)
        assert room.area == pytest.approx(12.0)
        assert room.center == pytest.approx([2.0, 1.5, 0.0])

    def test_grid_covers_interior(self):
        room = Room("r", 0, 4, 0, 3)
        pts = room.grid(0.5, z=1.2, margin=0.3)
        assert pts.shape[1] == 3
        assert np.all(pts[:, 2] == 1.2)
        assert np.all(pts[:, 0] >= 0.3) and np.all(pts[:, 0] <= 3.7)

    def test_grid_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            Room("r", 0, 4, 0, 3).grid(0.0)

    def test_empty_room_rejected(self):
        with pytest.raises(ValueError):
            Room("r", 1, 1, 0, 3)
