"""The package namespace re-exports each module's public names, and needs
no runtime dependency beyond numpy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_runs_without_scipy():
    """numpy is the only runtime dependency: with scipy made unimportable the
    package, its CLI, IO and benchmark modules import, and a search fit and a
    posterior spectrum run."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import blf, blf.bench, blf.cli, blf.io
        rep = blf.fit_blfdyn(blf.gen_tvar2(200, seed=0).x,
                             grid=blf.SearchGrid((0.95, 1.0), (0.95, 1.0), p_max=3))
        draw = blf.path_sampler(rep.run, rep.chosen_order)
        blf.spectrum_posterior(draw, 8, rng=np.random.default_rng(0))
    """)
    src = str(Path(blf.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
