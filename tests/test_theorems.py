from __future__ import annotations

import math

import numpy as np
import pytest

from keplersym import theorems as th
from keplersym.minkowski import MinkVec, norm2
from keplersym.orbit import (
    KeplerOrbit,
    Membership,
    PlanePoint,
    contains,
    fit,
    from_abc,
    geometry,
    point_at,
)
from keplersym.symmetry import act_dual, act_plane, algebra, exp_map
from keplersym.theorems import (
    DegenerateCurveError,
    TheoremError,
    UncertifiedRegimeError,
    Jet2Polar,
    ParametricCurve,
    circle_curve,
    curved_quadric_residual,
    dual_curve,
    dual_of_orbit,
    dual_point_of_tangent,
    eccentric_anomaly_of,
    eccentric_point,
    ellipse_curve,
    energy_family,
    envelope_energy,
    envelope_hooke,
    envelope_minor_axis,
    hooke_family,
    kepler_vertices,
    lambert_check,
    minor_axis_family,
    nested,
    orbit_curve,
    osculating_orbit,
    polar_graph_curve,
    polar_jet,
    radius_at_anomaly,
    second_focus,
    tait_kneser,
    tangency_report,
)


@pytest.mark.parametrize("curve", [
    circle_curve(0.6, -0.2, 1.3),
    ellipse_curve(2.0, 0.5),
    *hooke_family(2.0, [-0.7, 0.4]),
], ids=["circle", "ellipse", "hooke-", "hooke+"])
def test_closed_curve_derivatives_match_differences(curve):
    h = 1e-5
    for t in np.linspace(0.0, 2.0 * math.pi, 13):
        for f, df in ((curve.point, curve.d1), (curve.d1, curve.deriv2)):
            (x1, y1), (x0, y0) = f(t + h), f(t - h)
            assert df(t) == pytest.approx(((x1 - x0) / (2 * h), (y1 - y0) / (2 * h)), abs=1e-8)


def _cos(t):  # a float or an array, as the curve kernels take
    return (np if isinstance(t, np.ndarray) else math).cos(t)


def _sin(t):
    return (np if isinstance(t, np.ndarray) else math).sin(t)


def _assert_array_call_keeps_float_bits(kernel, ts):
    got = np.array(kernel(ts))
    want = np.array([kernel(t) for t in ts.tolist()]).T
    assert got.shape == want.shape == (2, len(ts))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("curve", [
    circle_curve(0.6, -0.2, 1.3),
    ellipse_curve(2.0, 0.5),
    hooke_family(math.pi, np.linspace(-1.0, 1.0, 20))[3],
    polar_graph_curve(lambda t: 1.0 + 0.1 * _cos(2 * t) - 0.05 * _sin(3 * t),
                      lambda t: -0.2 * _sin(2 * t) - 0.15 * _cos(3 * t),
                      lambda t: -0.4 * _cos(2 * t) + 0.45 * _sin(3 * t)),
    orbit_curve(from_abc(0.3, -0.4, 1.0)),  # an ellipse: closed
    orbit_curve(from_abc(1.5, 0.7, 1.0)),  # a hyperbola: an open arc
    dual_curve(circle_curve(0.6, 0.0, 1.0)),
    dual_curve(orbit_curve(from_abc(0.3, -0.4, 1.0))),
], ids=["circle", "ellipse", "hooke", "polar", "orbit-ellipse", "orbit-hyperbola",
        "dual-circle", "dual-orbit"])
def test_curve_kernels_on_an_array_keep_their_float_bits(curve):
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, 2001, endpoint=not curve.closed)
    # a dual curve (no d2) checks each tangent line in its point map, so takes floats there
    kernels = [curve.d1, curve.deriv2] if curve.d2 is None else [curve.point, curve.d1, curve.deriv2]
    for kernel in kernels:
        _assert_array_call_keeps_float_bits(kernel, ts)


def test_dual_curvature_on_an_array_keeps_its_float_bits():
    kappa = th._dual_curvature(circle_curve(0.6, 0.0, 1.0))
    ts = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    assert kappa(ts).tobytes() == np.array([kappa(t) for t in ts.tolist()]).tobytes()


def test_a_curve_needs_its_first_derivative():
    with pytest.raises(TypeError):
        ParametricCurve(fn=lambda t: (math.cos(t), math.sin(t)), domain=(0.0, 1.0))


def test_dual_of_orbit_cases():
    c = dual_of_orbit(from_abc(0, 0, 1))
    assert (c.cx, c.cy, c.radius) == (0.0, 0.0, 1.0)
    c = dual_of_orbit(from_abc(1, 0, 1))  # parabola: circle through origin
    assert math.hypot(c.cx, c.cy) == pytest.approx(c.radius)
    c = dual_of_orbit(from_abc(0.5, 0, 1))  # ellipse: origin strictly inside
    assert math.hypot(c.cx, c.cy) < c.radius


def test_dual_curve_of_centered_circle():
    curve = circle_curve(0.0, 0.0, 2.0)
    dual = dual_curve(curve)
    for t in np.linspace(0, 2 * math.pi, 13):
        a, b = dual.point(t)
        assert math.hypot(a, b) == pytest.approx(0.5, abs=1e-12)


def test_dual_point_of_an_array_of_parameters_is_a_typed_error():
    with pytest.raises(TheoremError, match="not an array"):
        dual_curve(circle_curve(0.6, 0, 1)).point(np.linspace(0, 1, 5))


def test_double_duality_returns_curve():
    curve = circle_curve(0.2, 0.1, 1.0)
    double = dual_curve(dual_curve(curve))
    for t in np.linspace(0, 2 * math.pi, 17):
        p = curve.point(t)
        q = double.point(t)
        assert math.hypot(q[0] - p[0], q[1] - p[1]) <= 1e-8


@pytest.mark.parametrize("triple", [(0.5, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.3, -0.4, 1.2)])
def test_dual_curve_matches_dual_of_orbit(triple):
    o = from_abc(*triple)
    circle = dual_of_orbit(o)
    curve = orbit_curve(o)
    lo, hi = curve.domain
    for t in np.linspace(lo + 1e-3, hi - 1e-3, 25):
        a, b = dual_point_of_tangent(curve, t)
        assert math.hypot(a - circle.cx, b - circle.cy) == pytest.approx(
            circle.radius, abs=1e-8
        )


def test_hyperbola_attractive_branch_gives_larger_arc():
    o = from_abc(2, 0, 1)
    circle = dual_of_orbit(o)
    curve = orbit_curve(o)
    lo, hi = curve.domain
    angles = []
    for t in np.linspace(lo + 1e-6, hi - 1e-6, 400):
        a, b = dual_point_of_tangent(curve, t)
        angles.append(math.atan2(b - circle.cy, a - circle.cx))
    width = max(angles) - min(angles)
    assert width > math.pi  # the larger arc
    assert width == pytest.approx(4 * math.pi / 3, abs=1e-2)


def test_osculating_orbit_closed_form():
    o = osculating_orbit(Jet2Polar(0.0, 1.0, 0.2, -0.3))
    assert (o.a, o.b, o.c) == pytest.approx((0.3, 0.2, 0.7))
    circle = osculating_orbit(Jet2Polar(1.3, 0.25, 0.0, 0.0))
    assert (circle.a, circle.b, circle.c) == pytest.approx((0.0, 0.0, 0.25), abs=1e-15)


def test_osculating_orbit_self_consistency():
    o = from_abc(0.5, 0, 1)
    jet = polar_jet(orbit_curve(o), 1.0)
    back = osculating_orbit(jet)
    assert (back.a, back.b, back.c) == pytest.approx((o.a, o.b, o.c), abs=1e-9)


def test_osculating_orbit_degenerate_line():
    with pytest.raises(TheoremError):
        osculating_orbit(Jet2Polar(0.0, 1.0, 0.0, -1.0))


def test_osculating_contact_is_third_order():
    curve = ellipse_curve(2.0, 1.0)
    t_star = 0.7
    o = osculating_orbit(polar_jet(curve, t_star))

    def gap(dt: float) -> float:
        x, y = curve.point(t_star + dt)
        th = math.atan2(y, x)
        return abs((o.a * math.cos(th) + o.b * math.sin(th) + o.c) - 1.0 / math.hypot(x, y))

    g1, g2 = gap(1e-2), gap(5e-3)
    assert g1 / g2 == pytest.approx(8.0, rel=0.35)  # O(dt^3) contact


def test_osculating_orbit_matches_three_point_fit_limit():
    curve = ellipse_curve(2.0, 1.0)
    t_star = 0.7
    o = osculating_orbit(polar_jet(curve, t_star))
    errs = []
    for delta in (1e-2, 1e-3):
        pts = [curve.point(t_star + k * delta) for k in (-1, 0, 1)]
        res = fit(pts)
        errs.append(
            max(
                abs(res.orbit.a - o.a),
                abs(res.orbit.b - o.b),
                abs(res.orbit.c - o.c),
            )
        )
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-4


def test_kepler_vertices_fig12_circle():
    curve = circle_curve(0.6, 0.0, 1.0)
    verts = kepler_vertices(curve)
    assert len(verts) == 4
    expected = sorted([0.0, math.acos(-0.6), math.pi, 2 * math.pi - math.acos(-0.6)])
    for got, want in zip(sorted(verts), expected):
        assert abs(got - want) <= 1e-6


def test_kepler_vertices_degenerate_circle():
    with pytest.raises(DegenerateCurveError):
        kepler_vertices(circle_curve(0.0, 0.0, 1.0))
    with pytest.raises(DegenerateCurveError):  # an orbit's dual is a circle
        kepler_vertices(orbit_curve(from_abc(0.3, -0.4, 1.0)))


def test_kepler_vertices_centered_ellipse():
    verts = kepler_vertices(ellipse_curve(2.0, 1.0))
    assert len(verts) >= 4


def test_kepler_vertices_random_star_shaped():
    rng = np.random.default_rng(31)
    made = 0
    while made < 5:
        a2, b2, a3, b3 = rng.uniform(-0.05, 0.05, size=4)

        def r_fn(t):
            return 1.0 + a2 * np.cos(2 * t) + b2 * np.sin(2 * t) + a3 * np.cos(3 * t) + b3 * np.sin(3 * t)

        def dr_fn(t):
            return -2 * a2 * np.sin(2 * t) + 2 * b2 * np.cos(2 * t) - 3 * a3 * np.sin(3 * t) + 3 * b3 * np.cos(3 * t)

        def d2r_fn(t):
            return -4 * a2 * np.cos(2 * t) - 4 * b2 * np.sin(2 * t) - 9 * a3 * np.cos(3 * t) - 9 * b3 * np.sin(3 * t)

        curve = polar_graph_curve(r_fn, dr_fn, d2r_fn)
        # strict convexity check: gamma', gamma'' independent everywhere
        convex = all(
            (lambda d, dd: d[0] * dd[1] - d[1] * dd[0])(curve.d1(t), curve.deriv2(t)) > 1e-3
            for t in np.linspace(0, 2 * math.pi, 256)
        )
        if not convex:
            continue
        made += 1
        assert len(kepler_vertices(curve)) >= 4


def test_nested_cases():
    assert nested(from_abc(0, 0, 1), from_abc(0, 0, 2)) is True
    assert nested(from_abc(0.5, 0, 1), from_abc(-0.5, 0, 1)) is False
    with pytest.raises(UncertifiedRegimeError):
        nested(from_abc(0, 0, 1), from_abc(1, 0, 1))  # parabola input


def test_timelike_pairs_are_nested():
    rng = np.random.default_rng(37)
    done = 0
    while done < 30:
        c = rng.uniform(0.8, 1.6)
        ecc = rng.uniform(0.0, 0.7)
        phi = rng.uniform(0, 2 * math.pi)
        o1 = from_abc(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)
        da, db = rng.uniform(-0.2, 0.2, size=2)
        dc = math.copysign(rng.uniform(math.hypot(da, db) + 0.05, 0.5), rng.uniform(-1, 1))
        o2 = KeplerOrbit(o1.a + da, o1.b + db, o1.c + dc)
        if o2.c <= 0 or o2.conic_class().value != "ellipse":
            continue
        assert nested(o1, o2) is True
        done += 1


def test_tait_kneser_on_fig12_arc():
    curve = circle_curve(0.6, 0.0, 1.0)
    v = math.acos(-0.6)
    report = tait_kneser(curve, (0.05, v - 0.05), k=12)
    assert report.pairs == 66
    assert report.all_nested
    assert report.all_chords_timelike


def test_tait_kneser_rejects_arc_with_vertex():
    curve = circle_curve(0.6, 0.0, 1.0)
    with pytest.raises(TheoremError):
        tait_kneser(curve, (-0.5, 0.5), k=4)


def test_eccentric_point_values():
    circle = from_abc(0, 0, 1)
    for u in np.linspace(0, 2 * math.pi, 9):
        p = eccentric_point(circle, u)
        assert (p.x, p.y) == pytest.approx((math.cos(u), math.sin(u)))
    o = from_abc(0.5, 0, 1)
    p = eccentric_point(o, 0.0)
    assert (p.x, p.y) == pytest.approx((2 / 3, 0.0))
    for u in np.linspace(0, 2 * math.pi, 17):
        p = eccentric_point(o, u)
        assert p.r == pytest.approx(radius_at_anomaly(o, u), rel=1e-12)
        assert contains(o, p, tol=1e-10) is Membership.ON_ATTRACTIVE


def test_eccentric_anomaly_inverse():
    o = from_abc(0.3, -0.4, 1.1)
    for u in np.linspace(-3, 3, 11):
        got = eccentric_anomaly_of(o, eccentric_point(o, u))
        assert math.remainder(got - u, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_lambert_circle_identity():
    o = from_abc(0, 0, 1)
    for u1, u2 in [(0.0, 1.0), (-2.0, 0.5), (1.0, 4.0)]:
        sides = lambert_check(o, u1, u2)
        assert sides.lhs == pytest.approx(sides.rhs, abs=1e-12)


def test_lambert_worked_case():
    sides = lambert_check(from_abc(0.5, 0, 1), 0.0, math.pi)
    assert sides.lhs == pytest.approx(16 / 3, rel=1e-12)
    assert sides.rhs == pytest.approx(16 / 3, rel=1e-12)


def test_lambert_random_sweep():
    rng = np.random.default_rng(41)
    for _ in range(100):
        c = rng.uniform(0.5, 2.0)
        ecc = rng.uniform(0.0, 0.9)
        phi = rng.uniform(0, 2 * math.pi)
        o = from_abc(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)
        u1, u2 = rng.uniform(-math.pi, math.pi, size=2)
        sides = lambert_check(o, u1, u2)
        b_axis_sq = 4.0 / (o.c**2 - o.a**2 - o.b**2)
        assert abs(sides.lhs - sides.rhs) <= 1e-10 * (1.0 + b_axis_sq)


def test_lambert_invariance_under_lorentz_flow():
    o = from_abc(0.4, 0.1, 1.2)
    u1, u2 = -0.4, 1.7
    base = lambert_check(o, u1, u2)
    p1, p2 = eccentric_point(o, u1), eccentric_point(o, u2)
    for s in (-0.4, -0.15, 0.2, 0.35):
        g = exp_map(algebra(x3=1), s)
        image_dual = act_dual(g, o.dual())
        image = from_abc(image_dual.a, image_dual.b, image_dual.c)
        q1 = act_plane(g, p1, sheet=1)
        q2 = act_plane(g, p2, sheet=1)
        w1 = eccentric_anomaly_of(image, q1)
        w2 = eccentric_anomaly_of(image, q2)
        sides = lambert_check(image, w1, w2)
        assert abs(sides.lhs - base.lhs) <= 1e-8 * (1.0 + abs(base.lhs))
        assert abs(sides.rhs - base.rhs) <= 1e-8 * (1.0 + abs(base.rhs))


def test_envelope_minor_axis_values():
    env = envelope_minor_axis(2.0, 1.0)
    assert (env.a, env.b, env.c) == pytest.approx((-0.5, 0.0, 0.5))
    # the parabola y^2 = 4(x + 1)
    for y in np.linspace(-3, 3, 13):
        x = y * y / 4.0 - 1.0
        if (x, y) == (-1.0, 0.0):
            continue
        r = math.hypot(x, y)
        assert env.a * x + env.b * y + env.c * r == pytest.approx(1.0, abs=1e-12)


def test_envelope_minor_axis_tangency():
    env = envelope_minor_axis(2.0, 1.0)
    members = minor_axis_family(2.0, 1.0, np.linspace(-1.2, 1.2, 20))
    for member in members:
        g = geometry(member)
        assert 2.0 * g.semi_minor == pytest.approx(2.0, rel=1e-12)
        assert contains(member, PlanePoint(1.0, 0.0), tol=1e-9) is Membership.ON_ATTRACTIVE
        report = tangency_report(member, env)
        assert report.even_contact
        assert report.residual <= 1e-7


def test_envelope_energy_values():
    env = envelope_energy(-0.5, 1.0)
    assert (env.a, env.b, env.c) == pytest.approx((-0.25, 0.0, 0.75))
    g = geometry(env)
    assert g.eccentricity == pytest.approx(1 / 3)
    assert g.semi_major == pytest.approx(1.5)
    fx, fy = second_focus(env)
    assert (fx, fy) == pytest.approx((1.0, 0.0), abs=1e-9)


def test_envelope_energy_tangency_and_guard():
    env = envelope_energy(-0.5, 1.0)
    members = energy_family(-0.5, 1.0, np.linspace(-0.9, 0.9, 20))
    for member in members:
        assert member.energy == pytest.approx(-0.5, abs=1e-12)
        report = tangency_report(member, env)
        assert report.even_contact
        assert report.residual <= 1e-7
    with pytest.raises(TheoremError):
        envelope_energy(-0.5, 3.0)  # outside the Hill region (1 + E x0 <= 0)


def test_envelope_hooke_lines_and_square_image():
    env = envelope_hooke(math.pi)
    assert env.half_gap == pytest.approx(1.0)
    members = hooke_family(math.pi, np.linspace(-1.0, 1.0, 9))
    for curve in members:
        ys = [curve.point(t)[1] for t in np.linspace(0, 2 * math.pi, 2001)]
        assert max(ys) == pytest.approx(env.half_gap, abs=1e-6)
        assert min(ys) == pytest.approx(-env.half_gap, abs=1e-6)
    # squared members are tangent to the squared-line envelope
    from keplersym.kmaps import square

    kepler_env = envelope_minor_axis(2.0 * math.pi / math.pi, 1.0)
    for curve in members[::2]:
        pts = [square(PlanePoint(*curve.point(t))) for t in np.linspace(0.1, 2 * math.pi, 24, endpoint=False)]
        res = fit(pts)
        assert res.kind == "orbit"
        report = tangency_report(res.orbit, kepler_env)
        assert report.even_contact
        assert report.residual <= 1e-6


def test_curved_quadric_residuals():
    assert curved_quadric_residual(MinkVec(0, 0, 1), -0.5, 0.0) == pytest.approx(0.0)
    assert curved_quadric_residual(MinkVec(math.sqrt(3), 0, -1), 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # fixed minor axis = zero-energy orbits of the curved problem with k = 4/B^2
    b_axis = 2.0
    for member in minor_axis_family(b_axis, 1.0, np.linspace(-1, 1, 7)):
        v = MinkVec(member.a, member.b, member.c)
        assert curved_quadric_residual(v, 0.0, 4.0 / b_axis**2) <= 1e-12
