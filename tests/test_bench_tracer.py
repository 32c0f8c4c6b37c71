"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches methods of the package by name, so
renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
while every other test passes.
"""

from pathlib import Path

import mpmath

from kodaira.config_curve import ConfigurationCurve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = {(path, attr): tracer._resolve(path).__dict__[attr]
                 for path, attr, _ in tracer.METHODS}
    svd_c, jacobian = mpmath.svd_c, ConfigurationCurve.__dict__["jacobian"]
    layers = tracer.Tracer()
    try:
        layers.install()
        assert mpmath.svd_c is not svd_c
        assert ConfigurationCurve.__dict__["jacobian"] is not jacobian
    finally:
        layers.uninstall()
    assert mpmath.svd_c is svd_c
    assert ConfigurationCurve.__dict__["jacobian"] is jacobian
    assert {key: tracer._resolve(key[0]).__dict__[key[1]] for key in originals} == originals
