import functools

import pytest

from keplersym import verify as vf


@pytest.fixture
def fresh_newton(monkeypatch):
    """The Newton residuals are cached per process: give a test its own cache."""
    monkeypatch.setattr(vf, "_newton_residuals", functools.cache(vf._newton_residuals.__wrapped__))
