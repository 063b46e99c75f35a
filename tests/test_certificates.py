from __future__ import annotations

import pytest

from bidouble.certificates import check
from bidouble.lattice import SurfaceLattice


def test_check_refuses_values_it_cannot_render():
    # a value without an exact JSON form would be compared by its repr
    line = SurfaceLattice("plane", ()).line()
    for value in (object(), line):
        with pytest.raises(TypeError):
            check("x/y", "unrenderable value", "intersection number", value, 1)
