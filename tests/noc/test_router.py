"""X-Y routing properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NoCError
from repro.noc.router import xy_route
from tests.mesh import hop_count

coords = st.tuples(st.integers(0, 15), st.integers(0, 15))


class TestXYRoute:
    def test_straight_line(self):
        path = xy_route((0, 0), (3, 0), 16, 16)
        assert path == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_x_before_y(self):
        path = xy_route((0, 0), (2, 2), 16, 16)
        assert path[:3] == [(0, 0), (1, 0), (2, 0)]
        assert path[3:] == [(2, 1), (2, 2)]

    def test_self_route(self):
        assert xy_route((5, 5), (5, 5), 16, 16) == [(5, 5)]

    def test_bounds_checked(self):
        with pytest.raises(NoCError):
            xy_route((0, 0), (16, 0), 16, 16)

    @given(coords, coords)
    def test_path_length_is_manhattan(self, src, dst):
        path = xy_route(src, dst, 16, 16)
        assert len(path) - 1 == hop_count(src, dst)

    @given(coords, coords)
    def test_adjacent_steps(self, src, dst):
        path = xy_route(src, dst, 16, 16)
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @given(coords, coords)
    def test_deterministic(self, src, dst):
        assert xy_route(src, dst, 16, 16) == xy_route(src, dst, 16, 16)
