"""The benchmark's tracer (bench/tracer.py) against the package.

Its metrics index the spans of the quadrature entries by name
(``quadrature.integrate``, ``integrate_rounds``, ``integrate_batch``), so a
renamed or deleted entry fails here, not only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

from tangentray import quadrature
from tangentray.contours import ContourPath, Line

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracer import Tracer  # noqa: E402


def test_tracer_metrics_read_every_quadrature_entry():
    entry = quadrature.integrate
    tracer = Tracer()
    tracer.install()
    try:
        res = quadrature.integrate(lambda t: np.exp(-t * t), ContourPath((Line(-3.0, 3.0),)))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["quadrature.calls"] == (1, "count")
    assert metrics["quadrature.evals"] == (res.evaluations, "count")
    assert metrics["quadrature.members"] == (1, "count")
    assert quadrature.integrate is entry
