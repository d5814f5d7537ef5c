"""The benchmark's span tracer can still wrap every name it patches.

``perfbench/spans.py`` replaces functions at the names their callers look up
(``epscan.build_hamiltonian``, ``biortho.eig_general``, ...). ``install``
raises when one of those names is gone or is no longer the one function that
every listed module shares. Each test restores what it patched.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from pshchain import AXIS_COUPLING, SweepGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("biortho", "cli", "epscan", "model", "numerics")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    mods = [importlib.import_module(f"pshchain.{m}") for m in MODULES]
    saved = [(mod, dict(vars(mod))) for mod in mods]
    try:
        yield importlib.import_module("spans")
    finally:
        for mod, names in saved:
            for name, value in names.items():
                if getattr(mod, name) is not value:
                    setattr(mod, name, value)
        sys.modules.pop("spans", None)


def test_every_traced_name_is_shared_and_patched(spans):
    originals = {}
    for _, attr, modules, _ in spans._TARGETS:
        values = {getattr(importlib.import_module(f"pshchain.{m}"), attr) for m in modules}
        assert len(values) == 1, f"{attr} differs between {modules}"
        originals[attr] = values.pop()
    spans.install(spans.Recorder())
    for _, attr, modules, _ in spans._TARGETS:
        for m in modules:
            traced = getattr(importlib.import_module(f"pshchain.{m}"), attr)
            assert traced is not originals[attr] and traced.__wrapped__ is originals[attr]


def test_traced_sweep_is_recorded(spans):
    from pshchain import epscan

    recorder = spans.Recorder()
    spans.install(recorder)
    # the δ = 0 ends of this line have tied overlaps, so some track matches
    # cannot take the argmax and solve the assignment
    grid = SweepGrid(AXIS_COUPLING, 0.3, tuple(np.linspace(-1.0, 1.0, 5)), 2)
    epscan.sweep(grid)
    names = [s.name for s in recorder.spans]
    # the sweep, then its assignment solves inside it
    assert names[0] == spans.SWEEP and set(names[1:]) == {spans.ASSIGN}
    assert all(s.parent == 0 for s in recorder.spans[1:])


def test_patches_are_undone():
    from pshchain import biortho, epscan

    assert not hasattr(epscan.sweep, "__wrapped__")
    assert not hasattr(biortho.eig_general, "__wrapped__")
