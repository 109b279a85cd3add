import pytest

from qmsflow import potentials
from qmsflow.potentials import QuadratureError


@pytest.fixture
def fail_quadrature_between(monkeypatch):
    """Call with (lo, hi) to make every quadrature of the green function for
    lo < r < hi raise QuadratureError, as scipy's quad does on a band of
    radii when f has a sharp dip.  No radius that a potential on the whole
    half-line samples while it is built lies in (0.6, 1.0)."""

    def install(lo, hi):
        real = potentials._quad_green

        def quad_green(metric, r, r0):
            if lo < r < hi:
                raise QuadratureError(
                    f"green function on '{metric.id}' at r={r}: forced")
            return real(metric, r, r0)

        monkeypatch.setattr(potentials, "_quad_green", quad_green)

    return install
