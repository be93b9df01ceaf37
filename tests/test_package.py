"""The package namespace re-exports each module's public names."""

import blf
from blf import dlm, lattice, selection, simulate, spectrum, tvar

MODULES = (dlm, lattice, selection, simulate, spectrum, tvar)


def test_all_is_sorted_union_of_module_names():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))
    assert blf.__all__ == sorted(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(blf, name) is getattr(mod, name)
