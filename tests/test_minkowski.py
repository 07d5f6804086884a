from __future__ import annotations

import math

import numpy as np
import pytest

from keplersym.minkowski import (
    CausalType,
    MinkowskiError,
    MinkPlane,
    MinkVec,
    PlaneType,
    classify_plane,
    classify_vector,
    norm2,
    pencil_classify,
    point_plane,
)


def test_norm2_values():
    assert norm2(MinkVec(0, 0, 1)) == -1
    assert norm2(MinkVec(3, 4, 5)) == 0
    assert norm2(MinkVec(1, 0, 0)) == 1


def test_classify_vector():
    assert classify_vector(MinkVec(3, 4, 5)) is CausalType.NULL
    assert classify_vector(MinkVec(0, 0, 2)) is CausalType.TIMELIKE
    assert classify_vector(MinkVec(1, 1, 1)) is CausalType.SPACELIKE
    with pytest.raises(MinkowskiError):
        classify_vector(MinkVec(0, 0, 0))


def test_classify_plane():
    assert classify_plane(MinkPlane(MinkVec(0, 0, 1), 0.0)) is PlaneType.ELLIPTIC
    assert classify_plane(MinkPlane(MinkVec(1, 0, 1), 1.0)) is PlaneType.PARABOLIC
    assert classify_plane(MinkPlane(MinkVec(1, 0, 0), 2.0)) is PlaneType.HYPERBOLIC
    with pytest.raises(MinkowskiError):
        MinkPlane(MinkVec(0, 0, 0), 1.0)


def test_point_plane_values():
    p = point_plane(1.0, 0.0)
    assert p.normal == MinkVec(1.0, 0.0, 1.0)
    assert p.offset == 1.0
    q = point_plane(0.0, 2.0)
    assert q.normal == MinkVec(0.0, 2.0, 2.0)
    with pytest.raises(MinkowskiError):
        point_plane(0.0, 0.0)


def test_point_plane_always_parabolic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.uniform(-5, 5, size=2)
        if x == 0.0 and y == 0.0:
            continue
        assert classify_plane(point_plane(x, y)) is PlaneType.PARABOLIC


def test_pencil_classify_examples():
    got = pencil_classify(MinkVec(0, 0, 1), MinkVec(0, 0, 2))
    assert (got.kind, got.common_points) == (CausalType.TIMELIKE, 0)
    got = pencil_classify(MinkVec(0, 0, 1), MinkVec(1, 0, 1))
    assert (got.kind, got.common_points) == (CausalType.SPACELIKE, 2)
    got = pencil_classify(MinkVec(0, 0, 1), MinkVec(1, 0, 2))
    assert (got.kind, got.common_points) == (CausalType.NULL, 1)
    with pytest.raises(MinkowskiError):
        pencil_classify(MinkVec(0, 0, 1), MinkVec(0, 0, 1))


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _boost(eta: float) -> np.ndarray:
    ch, sh = math.cosh(eta), math.sinh(eta)
    return np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])


def test_norm2_lorentz_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
        eta = rng.uniform(-1.5, 1.5)
        A = _rotation(phi1) @ _boost(eta) @ _rotation(phi2)
        v = rng.uniform(-3, 3, size=3)
        w = A @ v
        q_before = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
        q_after = w[0] ** 2 + w[1] ** 2 - w[2] ** 2
        assert abs(q_after - q_before) <= 1e-12 * (1.0 + abs(q_before) + np.dot(w, w))


def _sampled_intersection_count(v1: MinkVec, v2: MinkVec, grid: int = 4096, tol: float = 1e-7) -> int:
    """Independent oracle: zeros of the inverse-radius gap on a dense grid."""
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    d = v2 - v1
    gap = d.a * np.cos(theta) + d.b * np.sin(theta) + d.c
    signs = np.sign(gap)
    crossings = int(np.sum(signs != np.roll(signs, -1))) - int(np.sum(signs == 0))
    if crossings == 0 and np.min(np.abs(gap)) <= tol + (2 * math.pi / grid) ** 2:
        return 1
    return crossings


def test_pencil_prediction_matches_sampling_for_ellipses():
    rng = np.random.default_rng(23)
    done = 0
    while done < 50:
        c1, c2 = rng.uniform(0.6, 2.0, size=2)
        e1, e2 = rng.uniform(0.0, 0.85, size=2)
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        v1 = MinkVec(e1 * c1 * math.cos(p1), e1 * c1 * math.sin(p1), c1)
        v2 = MinkVec(e2 * c2 * math.cos(p2), e2 * c2 * math.sin(p2), c2)
        d = v2 - v1
        # skip near-tangent pairs; the oracle grid cannot resolve them
        if abs(math.hypot(d.a, d.b) - abs(d.c)) < 1e-4:
            continue
        predicted = pencil_classify(v1, v2).common_points
        assert predicted == _sampled_intersection_count(v1, v2)
        done += 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_minkvec_rejects_non_finite_coordinates(bad):
    for coords in ((bad, 0.0, 1.0), (0.0, bad, 1.0), (0.0, 0.0, bad)):
        with pytest.raises(MinkowskiError, match="finite"):
            MinkVec(*coords)
