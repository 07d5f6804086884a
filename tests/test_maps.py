from __future__ import annotations

import math
import re

import numpy as np
import pytest

from keplersym import kmaps
from keplersym.kmaps import (
    MapError,
    SingularRadiusError,
    flatten_m,
    flatten_m_dual,
    hill_dual,
    hill_embed,
    parabola_chart,
    parabola_chart_dual,
    reflect_dual_signed,
    repel_embed,
    square,
)
from keplersym.minkowski import MinkVec
from keplersym.orbit import (
    KeplerOrbit,
    Membership,
    PlanePoint,
    contains,
    fit,
    from_abc,
    geometry,
    point_at,
    sample,
)
from keplersym.symmetry import act_dual, act_plane, algebra, exp_map


def test_square_point_values():
    q = square(PlanePoint(0, 1))
    assert (q.x, q.y) == (-1.0, 0.0)


def test_square_of_vertical_line_is_unit_parabola():
    pts = [square(PlanePoint(1.0, t)) for t in np.linspace(-2, 2, 21)]
    for q in pts:
        assert q.x == pytest.approx(1.0 - q.y**2 / 4.0, abs=1e-12)
    res = fit(pts)
    assert res.kind == "orbit"
    assert res.residual <= 1e-9
    assert res.orbit.eccentricity == pytest.approx(1.0, abs=1e-9)
    want = kmaps.square_line_image(0.0, 1.0)
    assert (res.orbit.a, res.orbit.b, res.orbit.c) == pytest.approx(
        (want.a, want.b, want.c), abs=1e-9
    )


def test_square_random_lines_to_parabolas():
    rng = np.random.default_rng(13)
    for _ in range(25):
        phi = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(0.4, 2.0)
        normal = np.array([math.cos(phi), math.sin(phi)])
        tangent = np.array([-normal[1], normal[0]])
        ts = rng.uniform(-1.5, 1.5, size=20)
        pts = [square(PlanePoint(*(d * normal + t * tangent))) for t in ts]
        res = fit(pts)
        assert res.kind == "orbit"
        assert res.residual <= 1e-9
        assert abs(res.orbit.eccentricity - 1.0) <= 1e-6
        want = kmaps.square_line_image(phi, d)
        for got, exp in zip((res.orbit.a, res.orbit.b, res.orbit.c), (want.a, want.b, want.c)):
            assert abs(got - exp) <= 1e-8


def test_square_hooke_ellipse_minor_axis():
    ts = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    pts = [square(PlanePoint(2 * math.cos(t), math.sin(t))) for t in ts]
    res = fit(pts)
    assert res.kind == "orbit"
    g = geometry(res.orbit)
    assert 2.0 * g.semi_minor == pytest.approx(4.0, rel=1e-9)


def test_flatten_m_worked_example():
    o = from_abc(0.5, 0, 1)
    p = point_at(o, 0.0)
    assert (p.x, p.y) == pytest.approx((2 / 3, 0.0))
    q = flatten_m(p, 1.0)
    assert (q.x, q.y) == pytest.approx((2.0, 0.0), abs=1e-12)
    dual = flatten_m_dual(o.dual(), 1.0)
    assert (dual.a, dual.b, dual.c) == pytest.approx((0.5, 0.0, 0.0))
    # the image line a x + b y = 1 passes through (2, 0)
    assert dual.a * q.x + dual.b * q.y == pytest.approx(1.0, abs=1e-12)


def test_flatten_m_singular_radius():
    with pytest.raises(SingularRadiusError):
        flatten_m(PlanePoint(1.0, 0.0), 1.0)


@pytest.mark.parametrize("m", [1e-200, 1e-160, math.inf, -math.inf, math.nan])
def test_flatten_m_rejects_degenerate_angular_momentum(m):
    # 1e-200 squares to 0; 1e-160 squares to a subnormal whose reciprocal overflows
    with pytest.raises(MapError, match="angular momentum m="):
        flatten_m(PlanePoint(0.5, 0.0), m)
    with pytest.raises(MapError, match="angular momentum m="):
        flatten_m_dual(MinkVec(0.5, 0.0, 1.0), m)


@pytest.mark.parametrize("energy", [math.inf, math.nan])
def test_hill_maps_reject_non_finite_energy(energy):
    o = from_abc(math.sqrt(3.0), 0, 1)
    for call in (lambda: hill_embed(PlanePoint(0.5, 0.0), energy),
                 lambda: repel_embed(PlanePoint(0.5, 0.0), energy),
                 lambda: hill_dual(o, energy)):
        with pytest.raises(MapError, match="energy="):
            call()


@pytest.mark.parametrize("call,param", [
    (lambda: hill_embed(PlanePoint(0.5, 0.0), 1e308), "energy=1e+308"),
    (lambda: repel_embed(PlanePoint(0.5, 0.0), 1e308), "energy=1e+308"),
    (lambda: flatten_m(PlanePoint(1e300, 0.0), 1e-150), "m=1e-150"),
], ids=["hill", "repel", "flatten"])
def test_radial_maps_reject_an_overflowing_denominator(call, param):
    # the image would underflow to the origin; the message names the overflow instead
    with pytest.raises(MapError, match=re.escape(f"overflows the map's denominator at {param}")):
        call()


def test_radial_maps_keep_the_per_point_formulas_bits():
    # the former kernels, written out with r = p.r: p / (1 - r/M^2), p / (1 + 2 E r), p / (1 - 2 E r)
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = PlanePoint(*rng.uniform(-3.0, 3.0, size=2).tolist())
        m, energy = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.05, 2.0))
        r = p.r
        for got, denom in ((flatten_m(p, m), 1.0 - r / (m * m)),
                           (hill_embed(p, energy), 1.0 + 2.0 * energy * r),
                           (repel_embed(p, energy), 1.0 - 2.0 * energy * r)):
            want = (p.x / denom, p.y / denom)
            assert np.array(got.as_tuple()).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("call,kind,message", [
    (lambda: flatten_m(PlanePoint(1.0, 0.0), 1.0), SingularRadiusError,
     "radius 1.0 sits on the singular circle r = M^2"),
    (lambda: repel_embed(PlanePoint(0.5, 0.0), 1.0), SingularRadiusError,
     "radius 0.5 sits on the singular circle r = 1/(2E)"),
    (lambda: flatten_m(PlanePoint(1e300, 0.0), 1e-150), MapError,
     "radius 1e+300 overflows the map's denominator at m=1e-150"),
    (lambda: hill_embed(PlanePoint(0.5, 0.0), 1e308), MapError,
     "radius 0.5 overflows the map's denominator at energy=1e+308"),
    (lambda: repel_embed(PlanePoint(0.5, 0.0), 1e308), MapError,
     "radius 0.5 overflows the map's denominator at energy=1e+308"),
], ids=["flatten-singular", "repel-singular", "flatten-overflow", "hill-overflow", "repel-overflow"])
def test_radial_map_errors_keep_their_types_and_messages(call, kind, message):
    with pytest.raises(MapError) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_hill_dual_rejects_an_overflowing_image():
    # 1e308 passes the energy check, but c + 2E overflows to inf
    with pytest.raises(MapError, match=re.escape("energy=1e+308")):
        hill_dual(from_abc(0.5, 0, 1), 1e308)


# Each radial map is the x7 translation of the symmetry group: exp of the
# generator with x7 = t sends the cone lift (x, y, r, 1) to (x, y, r, 1 + t r),
# so its plane action is p -> p / (1 + t r) and its dual action c -> c + t.
@pytest.mark.parametrize("radial,dual,t", [
    (lambda p: flatten_m(p, 1.3), lambda v: flatten_m_dual(v, 1.3), -1.0 / 1.3**2),
    (lambda p: hill_embed(p, 0.7), lambda v: hill_dual(KeplerOrbit(*v.as_tuple()), 0.7).dual(),
     1.4),
    (lambda p: repel_embed(p, 0.7), None, -1.4),
], ids=["flatten", "hill", "repel"])
def test_radial_maps_are_x7_translations(radial, dual, t):
    g = exp_map(algebra(x7=t))
    rng = np.random.default_rng(23)
    for r in (0.2, 0.45, 1.1, 2.5, 4.0):  # clear of r = M^2 = 1.69 and r = 1/(2E) = 0.71
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = PlanePoint(r * math.cos(phi), r * math.sin(phi))
        got, want = radial(p), act_plane(g, p)
        assert math.dist(got.as_tuple(), want.as_tuple()) <= 1e-12 * want.r
        if dual is not None:
            v = MinkVec(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.5, 2.0))
            got, want = dual(v).as_tuple(), act_dual(g, v).as_tuple()
            assert math.dist(got, want) <= 1e-12 * math.hypot(*want)


def test_flatten_m_collinearity():
    rng = np.random.default_rng(17)
    for m in (0.5, 1.0, 2.0):
        c = 1.0 / (m * m)
        for _ in range(10):
            # near-circular members hug the singular circle r = M^2
            ecc = rng.uniform(0.3, 1.6)
            phi = rng.uniform(0, 2 * math.pi)
            o = from_abc(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)
            pts = []
            for p in sample(o, 24):
                if abs(1.0 - p.r / (m * m)) < 0.05:
                    continue
                pts.append(flatten_m(p, m))
            assert len(pts) >= 10
            res = fit(pts)
            assert res.kind == "line"
            assert res.residual <= 1e-10
            dual = flatten_m_dual(o.dual(), m)
            assert res.line[0] == pytest.approx(dual.a, abs=1e-9)
            assert res.line[1] == pytest.approx(dual.b, abs=1e-9)


def test_hill_embed_worked_example():
    o = from_abc(math.sqrt(3.0), 0, 1)
    assert o.energy == pytest.approx(1.0)
    p = point_at(o, 0.0)
    assert p.r == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0)
    q = hill_embed(p, 1.0)
    assert q.r == pytest.approx(1.0 / (math.sqrt(3.0) + 3.0), abs=1e-12)
    image = hill_dual(o, 1.0)
    assert (image.a, image.b, image.c) == (math.sqrt(3.0), 0.0, 3.0)
    assert image.energy == pytest.approx(-1.0)
    assert q.r == pytest.approx(1.0 / (image.a + image.c), abs=1e-12)


def test_hill_reflection_matches_canonical_predictor():
    o = from_abc(math.sqrt(3.0), 0, 1)
    signed = MinkVec(o.a, o.b, -o.c)  # positive-energy signed representative
    reflected = reflect_dual_signed(signed, o.energy)
    image = hill_dual(o, o.energy)
    assert (reflected.a, reflected.b, reflected.c) == pytest.approx(
        (image.a, image.b, image.c)
    )


def test_hill_embed_images_inside_half_disk():
    rng = np.random.default_rng(19)
    for _ in range(20):
        c = rng.uniform(0.3, 2.0)
        h = math.sqrt(c * c + 2.0 * c)  # energy exactly +1
        phi = rng.uniform(0, 2 * math.pi)
        o = from_abc(h * math.cos(phi), h * math.sin(phi), c)
        assert o.energy == pytest.approx(1.0)
        image = hill_dual(o, 1.0)
        for p in sample(o, 20):
            q = hill_embed(p, 1.0)
            assert q.r < 0.5
            assert contains(image, q, tol=1e-9) is Membership.ON_ATTRACTIVE


def test_repel_embed_annulus_and_tiling():
    o = from_abc(math.sqrt(3.0), 0, 1)  # energy +1
    image = hill_dual(o, 1.0)
    for p in sample(o, 15, branch="repelling"):
        q = repel_embed(p, 1.0)
        assert 0.5 < q.r < 1.0
        assert contains(image, q, tol=1e-9) is Membership.ON_ATTRACTIVE
    for p in sample(o, 15):
        q = hill_embed(p, 1.0)
        assert contains(image, q, tol=1e-9) is Membership.ON_ATTRACTIVE


def test_repel_embed_singular_radius():
    with pytest.raises(SingularRadiusError):
        repel_embed(PlanePoint(0.5, 0.0), 1.0)
    with pytest.raises(MapError):
        repel_embed(PlanePoint(1.0, 0.0), -1.0)


def test_parabola_chart_values():
    q = parabola_chart(1.0, 1.0)
    assert (q.x, q.y) == (0.0, 2.0)
    dual = parabola_chart_dual(1.0, 0.0, 0.0)
    assert (dual.a, dual.b, dual.c) == (0.5, 0.0, 0.5)
    assert dual.a * q.x + dual.b * q.y + dual.c * q.r == pytest.approx(1.0)
    q = parabola_chart(2.0, 4.0)
    assert (q.x, q.y) == (0.75, 1.0)
    assert q.r == pytest.approx(1.25)
    assert dual.a * q.x + dual.b * q.y + dual.c * q.r == pytest.approx(1.0)
    with pytest.raises(MapError):
        parabola_chart(1.0, 0.0)


def test_parabola_chart_family_law():
    from keplersym.orbit import membership_residual

    rng = np.random.default_rng(23)
    done = 0
    while done < 25:
        a2, a1, a0 = rng.uniform(-2, 2, size=3)
        if abs(a2 + a0) < 0.2:
            continue
        dual = parabola_chart_dual(a2, a1, a0)
        o = from_abc(dual.a, dual.b, dual.c)
        for bx in np.linspace(-1.5, 1.5, 12):
            by = a2 * bx * bx + a1 * bx + a0
            if abs(by) < 1e-3:
                continue
            q = parabola_chart(bx, by)
            # upper-half-plane points satisfy the raw-triple equation exactly
            if by > 0:
                s = dual.a * q.x + dual.b * q.y + dual.c * q.r
                assert abs(s - 1.0) <= 1e-10
            assert membership_residual(o, q.x, q.y) <= 1e-10
        done += 1
