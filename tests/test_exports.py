"""The package namespace re-exports exactly the public names of its layers."""

import wl1min
from wl1min import bench, certificates, linops, solver


def test_package_all_is_the_union_of_the_layers():
    layers = set(linops.__all__) | set(solver.__all__) | set(certificates.__all__)
    layers |= set(bench.__all__)
    exported = set(wl1min.__all__) - {"__version__"}
    assert exported == layers
    assert len(wl1min.__all__) == len(set(wl1min.__all__))
    for name in wl1min.__all__:
        assert hasattr(wl1min, name), name
