from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from keplersym import orbit as ko
from keplersym import theorems as th
from keplersym.orbit import (
    BranchDomainError,
    ConicClass,
    FitError,
    KeplerOrbit,
    LineDualError,
    Membership,
    OrbitError,
    PlanePoint,
    conserved,
    contains,
    fit,
    from_abc,
    conic_residual,
    geometry,
    newton_flow,
    point_at,
    sample,
)


def random_orbit(rng, e_max=1.8):
    c = rng.uniform(0.5, 2.0)
    e = rng.uniform(0.0, e_max)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return KeplerOrbit(e * c * math.cos(phi), e * c * math.sin(phi), c)


def test_from_abc_canonicalization():
    o = from_abc(1.0, 0.0, -1.0)
    assert (o.a, o.b, o.c) == (1.0, 0.0, 1.0)
    assert o.conic_class() is ConicClass.PARABOLA
    assert from_abc(0.0, 0.0, 1.0).conic_class() is ConicClass.ELLIPSE


def test_from_abc_rejects_lines_and_zero():
    with pytest.raises(LineDualError):
        from_abc(1.0, 0.0, 0.0)
    with pytest.raises(OrbitError):
        from_abc(0.0, 0.0, 0.0)
    for triple in ((math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(OrbitError):
            from_abc(*triple)


def test_conserved_circle():
    assert conserved(from_abc(0, 0, 1)) == (0.0, -0.5, 1.0)


def test_conserved_ellipse_and_hyperbola():
    e, E, M = conserved(from_abc(0.5, 0, 1))
    assert (e, E, M) == (0.5, -0.375, 1.0)
    e, E, M = conserved(from_abc(2, 0, 1))
    assert (e, E, M) == (2.0, 1.5, 1.0)


def test_radius_values():
    circle = from_abc(0, 0, 1)
    for t in np.linspace(0, 2 * math.pi, 7):
        assert point_at(circle, t).r == pytest.approx(1.0)
    assert point_at(from_abc(1, 0, 1), 0.0).r == pytest.approx(0.5)
    with pytest.raises(BranchDomainError, match="outside the attractive branch domain"):
        point_at(from_abc(2, 0, 1), math.pi)
    assert point_at(from_abc(2, 0, 1), 0.0, "repelling").r == pytest.approx(1.0)
    with pytest.raises(BranchDomainError, match="outside the repelling branch domain"):
        point_at(from_abc(2, 0, 1), math.pi / 2, "repelling")
    with pytest.raises(ValueError, match="branch"):
        point_at(from_abc(2, 0, 1), 0.0, "sideways")


def test_sample_on_curve():
    circle = from_abc(0, 0, 1)
    for p in sample(circle, 3):
        assert p.x**2 + p.y**2 == pytest.approx(1.0, abs=1e-14)
    o = from_abc(0.5, 0, 1)
    for p in sample(o, 9):
        assert abs(o.a * p.x + o.b * p.y + o.c * p.r - 1.0) <= 1e-12
    h = from_abc(2, 0, 1)
    for p in sample(h, 9):
        assert ko.rho(h, p.theta) > 0.0


def test_sample_repelling_branch():
    h = from_abc(2, 0, 1)
    for p in sample(h, 9, branch="repelling"):
        assert abs(h.a * p.x + h.b * p.y - h.c * p.r - 1.0) <= 1e-12
    with pytest.raises(BranchDomainError):
        sample(from_abc(0.5, 0, 1), 5, branch="repelling")


@pytest.mark.parametrize("n", [3, 24, 4001])
@pytest.mark.parametrize("abc,branch", [
    ((0.3, -0.4, 1.0), "attractive"),  # closed: the full circle
    ((1.5, 0.7, 1.0), "attractive"),  # open arcs of a hyperbola
    ((1.5, 0.7, 1.0), "repelling"),
    ((0.6, 0.8, 1.0), "attractive"),  # and of a parabola
])
def test_sample_thetas_keeps_the_per_index_formulas_bits(abc, branch, n):
    o = from_abc(*abc)
    t0 = o.pericenter_angle
    w = ko.arc_half_width(o, branch, ko.ARC_DELTA)
    if w is None:
        want = [t0 + 2.0 * math.pi * i / n for i in range(n)]
    else:
        step = 2.0 * w / (n + 1)
        want = [t0 - w + (i + 1) * step for i in range(n)]
    got = ko.sample_thetas(o, n, branch)
    assert all(type(t) is float for t in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _xy_bytes(points) -> bytes:
    return np.array([(p.x, p.y) for p in points], dtype=float).tobytes()


@pytest.mark.parametrize("n", [3, 24, 2000])
@pytest.mark.parametrize("branch", ["attractive", "repelling"])
@pytest.mark.parametrize("abc", [(0.3, -0.4, 1.0), (0.6, 0.8, 1.0), (1.5, 0.7, 1.0)],
                         ids=["ellipse", "parabola", "hyperbola"])
def test_sample_keeps_the_per_point_formulas_bits(abc, branch, n):
    o = from_abc(*abc)
    if branch == "repelling" and o.conic_class() is not ConicClass.HYPERBOLA:
        with pytest.raises(BranchDomainError, match="^orbit has no repelling branch$"):
            sample(o, n, branch)
        return
    # the former kernel: rho, then the radius, then the point, each angle on its own
    sign = 1.0 if branch == "attractive" else -1.0
    thetas = ko.sample_thetas(o, n, branch)
    want = []
    for t in thetas:
        r = 1.0 / (o.a * math.cos(t) + o.b * math.sin(t) + sign * o.c)
        want.append((r * math.cos(t), r * math.sin(t)))
    got = sample(o, n, branch)
    assert _xy_bytes(got) == np.array(want).tobytes()
    assert all(type(p.x) is float and type(p.y) is float for p in got)
    assert _xy_bytes(point_at(o, t, branch) for t in thetas) == _xy_bytes(got)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
@pytest.mark.parametrize("branch", ["attractive", "repelling"])
def test_sampling_refuses_a_non_finite_or_negative_delta(branch, delta):
    h = from_abc(2, 0, 1)  # a hyperbola: both branches exist
    for call in (lambda: ko.arc_half_width(h, branch, delta),
                 lambda: ko.sample_thetas(h, 4, branch, delta),
                 lambda: sample(h, 4, branch, delta)):
        with pytest.raises(BranchDomainError, match=rf"^delta={delta!r} is outside \[0, "):
            call()


@pytest.mark.parametrize("branch,top", [("attractive", 3.0), ("repelling", 1.0)])
def test_sampling_refuses_a_delta_at_or_above_the_largest_rho(branch, top):
    # rho = 2 cos + sign: at most 3 on the attractive branch, 1 on the repelling one
    h = from_abc(2, 0, 1)
    for delta in (top, 5.0):
        with pytest.raises(BranchDomainError, match=rf"delta={delta!r} is outside \[0, {top!r}\), "
                                                    rf"the {branch} branch's range of rho"):
            sample(h, 4, branch, delta)
    # just below the largest rho the arc is narrow but every point keeps rho > delta
    delta = 0.99 * top
    sign = 1.0 if branch == "attractive" else -1.0
    pts = sample(h, 4, branch, delta)
    assert len({p.as_tuple() for p in pts}) == 4
    assert all(ko.rho(h, p.theta, sign) > delta for p in pts)
    # a circle's rho is c everywhere: any delta in [0, c) keeps the full circle
    assert ko.arc_half_width(from_abc(0, 0, 1), "attractive", 0.5) is None
    with pytest.raises(BranchDomainError, match="delta=1.0"):
        ko.arc_half_width(from_abc(0, 0, 1), "attractive", 1.0)


@pytest.mark.parametrize("abc,branch", [
    ((-2e200, 0.0, 2e200), "attractive"),  # the arc rounds to the full circle
    ((1.0000000000000002e16, 0.0, 1e16), "repelling"),
])
def test_sample_point_at_infinity_is_a_branch_error(abc, branch):
    # rho cancels to exactly 0 at a sampled angle of these extreme triples
    with pytest.raises(BranchDomainError, match=rf"outside the {branch} branch domain \(rho=0.0\)"):
        sample(from_abc(*abc), 4, branch=branch)


def test_contains_branches():
    assert contains(from_abc(0, 0, 1), PlanePoint(1, 0)) is Membership.ON_ATTRACTIVE
    h = from_abc(2, 0, 1)
    assert contains(h, PlanePoint(-1, 0)) is Membership.OFF
    # pericenter of the attractive branch
    assert contains(h, PlanePoint(1 / 3, 0)) is Membership.ON_ATTRACTIVE
    # (1, 0) satisfies a x + b y - c r = 1 exactly: the repelling vertex
    assert contains(h, PlanePoint(1, 0)) is Membership.ON_REPELLING
    assert contains(h, PlanePoint(0.9, 0)) is Membership.OFF


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_conic_residual_keeps_the_bits_of_the_literal_formula(sign):
    rng = np.random.default_rng(7)
    for _ in range(50):
        o = random_orbit(rng)
        x, y = map(float, rng.uniform(-3.0, 3.0, size=2))
        r = math.hypot(x, y)
        s = o.a * x + o.b * y
        want = s + o.c * r - 1.0 if sign > 0 else s - o.c * r - 1.0
        assert conic_residual(o, x, y, r, sign) == want
        xs, ys = rng.uniform(-3.0, 3.0, size=(2, 64))
        rs = np.hypot(xs, ys)
        s = o.a * xs + o.b * ys
        want = s + o.c * rs - 1.0 if sign > 0 else s - o.c * rs - 1.0
        assert np.array_equal(conic_residual(o, xs, ys, rs, sign), want)


def test_geometry_ellipse():
    g = geometry(from_abc(0.5, 0, 1))
    assert g.eccentricity == pytest.approx(0.5)
    assert g.semi_major == pytest.approx(4.0 / 3.0)
    assert g.semi_minor == pytest.approx(2.0 / math.sqrt(3.0))
    assert g.latus_rectum == pytest.approx(2.0)
    assert g.pericenter_angle == 0.0


def test_geometry_circle_and_rotation():
    g = geometry(from_abc(0, 0, 1))
    assert g.semi_major == g.semi_minor == pytest.approx(1.0)
    assert geometry(from_abc(0, 1, 1)).pericenter_angle == pytest.approx(math.pi / 2)


def test_geometry_parabola_has_no_axes():
    g = geometry(from_abc(1, 0, 1))
    assert g.semi_major is None and g.semi_minor is None
    assert g.latus_rectum == pytest.approx(2.0)


def test_extreme_triples_do_not_overflow():
    # the squares of these triples overflow; the quadric is scaled by max(|a|, |b|, c)
    o = from_abc(-2e200, 0.0, 2e200)
    assert o.conic_class() is ConicClass.PARABOLA
    assert o.energy == 0.0
    assert geometry(o).semi_minor is None
    o = from_abc(1e160, 0.0, 5e159)
    assert o.conic_class() is ConicClass.HYPERBOLA
    assert o.energy == pytest.approx(7.5e159, rel=1e-15)
    g = geometry(o)
    assert g.semi_major == pytest.approx(1.0 / 1.5e160, rel=1e-15)
    assert g.semi_minor == pytest.approx(1.0 / math.sqrt(0.75e320), rel=1e-15)
    o = from_abc(5e159, 0.0, 1e160)
    assert o.conic_class() is ConicClass.ELLIPSE
    assert o.energy == pytest.approx(-3.75e159, rel=1e-15)
    # 2c overflows here: the energy of this circle is -c/2
    o = from_abc(0.0, 0.0, 1e308)
    assert o.conic_class() is ConicClass.ELLIPSE
    assert o.energy == pytest.approx(-5e307, rel=1e-15)
    assert geometry(o).semi_minor == pytest.approx(1e-308, rel=1e-15)
    # the quadric (-1.025e307) is finite, but 1 + a^2 + b^2 + c^2 is not
    o = from_abc(-1e154, 0.0, 1.05e154)
    assert o.conic_class() is ConicClass.ELLIPSE
    a, c = Fraction(o.a), Fraction(o.c)
    q = a * a - c * c  # exact
    assert o.energy == pytest.approx(float(q / (2 * c)), rel=2e-15)
    g = geometry(o)
    assert g.semi_major == pytest.approx(float(c / -q), rel=2e-15)
    assert g.semi_minor == pytest.approx(1.0 / math.sqrt(float(-q)), rel=2e-15)


def test_finite_quadrics_keep_the_plain_formulas():
    rng = np.random.default_rng(31)
    for _ in range(200):
        o = random_orbit(rng)
        assert o.energy == (o.a * o.a + o.b * o.b - o.c * o.c) / (2.0 * o.c)
        if o.conic_class() is not ConicClass.PARABOLA:
            q = o.c * o.c - o.a * o.a - o.b * o.b
            assert geometry(o).semi_minor == 1.0 / math.sqrt(abs(q))


def test_semi_major_energy_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        o = random_orbit(rng)
        if o.conic_class() is ConicClass.PARABOLA:
            continue
        g = geometry(o)
        assert g.semi_major * 2.0 * abs(g.energy) == pytest.approx(1.0, rel=1e-12)


def test_fit_recovers_exact_samples():
    o = from_abc(0.5, 0, 1)
    res = fit(sample(o, 5))
    assert res.kind == "orbit"
    assert res.residual <= 1e-12
    assert res.orbit.a == pytest.approx(0.5, abs=1e-12)
    assert res.orbit.b == pytest.approx(0.0, abs=1e-12)
    assert res.orbit.c == pytest.approx(1.0, abs=1e-12)


def test_fit_flags_lines():
    pts = [PlanePoint(2.0, y) for y in (-1.0, 0.3, 1.7)]
    res = fit(pts)
    assert res.kind == "line"
    assert res.line[0] == pytest.approx(0.5, abs=1e-9)
    assert res.line[1] == pytest.approx(0.0, abs=1e-9)


def test_fit_perturbed_samples():
    o = from_abc(0.5, 0, 1)
    rng = np.random.default_rng(11)
    pts = []
    for p in sample(o, 30):
        dx, dy = rng.uniform(-1e-6, 1e-6, size=2)
        pts.append(PlanePoint(p.x + dx, p.y + dy))
    res = fit(pts)
    assert res.residual <= 1e-5
    assert abs(res.orbit.a - 0.5) <= 1e-4
    assert abs(res.orbit.b) <= 1e-4
    assert abs(res.orbit.c - 1.0) <= 1e-4


def test_fit_rejects_coincident_points():
    with pytest.raises(FitError):
        fit([PlanePoint(1, 0)] * 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_points(bad):
    with pytest.raises(FitError, match="finite"):
        fit([(1, 0), (0, 1), (bad, 1), (2, 2)])


@pytest.mark.parametrize("n", [3, 7, 30])
def test_fit_round_trip_all_classes(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        o = random_orbit(rng)
        res = fit(sample(o, n))
        assert res.kind == "orbit"
        for got, want in zip((res.orbit.a, res.orbit.b, res.orbit.c), (o.a, o.b, o.c)):
            assert abs(got - want) <= 1e-9


def test_newton_flow_circle():
    traj = newton_flow(from_abc(0, 0, 1))
    assert np.max(np.abs(traj.radii() - 1.0)) <= 1e-8
    assert np.max(np.abs(traj.energies() + 0.5)) <= 1e-8


def test_newton_flow_membership_ellipse():
    o = from_abc(0.5, 0, 1)
    traj = newton_flow(o)
    assert np.max(np.abs(conic_residual(o, traj.pos[:, 0], traj.pos[:, 1], traj.radii()))) <= 1e-6
    # one full period was integrated
    period = 2.0 * math.pi * geometry(o).semi_major**1.5
    assert abs(traj.t[-1] - period) <= 1e-8 * period


def test_newton_flow_hyperbola_conservation():
    o = from_abc(2, 0, 1)
    traj = newton_flow(o)
    E = traj.energies()
    M = traj.ang_momenta()
    assert np.max(np.abs(E - 1.5)) <= 1e-8
    assert np.max(np.abs(np.abs(M) - 1.0)) <= 1e-10


def test_newton_flows_step_rule_and_its_refusal_at_the_cap(monkeypatch):
    def estimate(o, fine, coarse):
        return np.max(np.abs(fine.residuals(o)[:, ::2] - coarse.residuals(o))) / 15.0

    for abc in [(0.3, 0.1, 2.0), (2.0, 0.0, 1.0)]:
        o = from_abc(*abc)
        traj = newton_flow(o)
        n = len(traj.t) - 1
        assert n in [250 * 2**k for k in range(1, 9)]
        half = newton_flow(o, steps=n // 2)
        assert estimate(o, traj, half) <= ko.NEWTON_TARGET
        if n > 500:  # the doubling before did not meet the target
            assert estimate(o, half, newton_flow(o, steps=n // 4)) > ko.NEWTON_TARGET
        assert np.array_equal(traj.pos, newton_flow(o, steps=n).pos)
    o = from_abc(0.95, 0, 1)  # its default meets the target at 16,000 steps
    monkeypatch.setattr(ko, "NEWTON_CAP", 4000)
    with pytest.raises(ko.IntegrationError, match=r"^steps=4000 reached the cap 4000 with estimate ") as err:
        newton_flow(o)
    assert 1e-10 < err.value.residual < 1e-6


def test_newton_flow_spans_one_period_or_the_open_orbits_time():
    for abc in [(0.3, 0.1, 2.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, -1.4, 0.8), (10.0, 0.0, 1.0)]:
        o = from_abc(*abc)
        traj = newton_flow(o, steps=400)
        r0 = 1.0 / (math.hypot(o.a, o.b) + o.c)
        if o.conic_class() is ConicClass.ELLIPSE:
            assert traj.s[-1] == pytest.approx(2.0 * math.pi / math.sqrt(-2.0 * o.energy), rel=1e-15)
        else:
            assert ko.kepler_time(o, traj.s[-1]) == pytest.approx(2.0 * math.pi * r0**1.5, rel=1e-5)


def test_kepler_time_is_keplers_equation_in_the_anomalies():
    rng = np.random.default_rng(31)
    for _ in range(20):
        o = random_orbit(rng, e_max=0.97)
        if o.conic_class() is not ConicClass.ELLIPSE:
            continue
        semi, e = geometry(o).semi_major, o.eccentricity
        for p in sample(o, 24):
            u = th.eccentric_anomaly_of(o, p)  # s = sqrt(a) u when dt = r ds
            want = semi**1.5 * (u - e * math.sin(u))  # (E - e sin E) / n
            assert ko.kepler_time(o, math.sqrt(semi) * u) == pytest.approx(want, rel=1e-12, abs=1e-15)
    for _ in range(20):
        o = random_orbit(rng, e_max=3.0)
        if o.conic_class() is not ConicClass.HYPERBOLA:
            continue
        semi, e = geometry(o).semi_major, o.eccentricity
        for h in rng.uniform(-3.0, 3.0, size=12):
            want = semi**1.5 * (e * math.sinh(h) - h)
            assert ko.kepler_time(o, math.sqrt(semi) * h) == pytest.approx(want, rel=1e-12)


def _array_rk4(f, y, h, steps):
    """Reference RK4 over numpy arrays, written apart from orbit.rk4."""
    out = [y]
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("abc", [(0.5, -0.2, 1.0), (0.6, 0.8, 1.0), (2.0, 0.5, 1.0)])
def test_newton_flow_matches_array_rk4(abc):
    o = from_abc(*abc)
    steps = 600
    t0 = o.pericenter_angle
    r0 = 1.0 / (math.hypot(o.a, o.b) + o.c)
    u = np.array([math.cos(t0), math.sin(t0)])
    y0 = np.concatenate([r0 * u, (o.ang_momentum / r0) * np.array([-u[1], u[0]]), [0.0]])

    def deriv(s):  # the Sundman-time field: d/ds = r d/dt
        r = math.hypot(s[0], s[1])
        k = 1.0 / (r * r)
        return np.array([r * s[2], r * s[3], -s[0] * k, -s[1] * k, r])

    traj = newton_flow(o, steps=steps)
    h = traj.s[1]
    want = _array_rk4(deriv, y0, h, steps)
    assert np.array_equal(traj.pos, want[:, :2])
    assert np.array_equal(traj.vel, want[:, 2:4])
    assert np.array_equal(traj.t, want[:, 4])
    assert np.array_equal(traj.s, [i * h for i in range(steps + 1)])


def test_rk4_returns_the_state_array_and_guards_each_step():
    out = ko.rk4(lambda y: (y[1], -y[0]), (1.0, 0.0), 0.1, 5)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (6, 2)
    assert tuple(out[0]) == (1.0, 0.0)


def test_rk4_on_columns_runs_each_system_as_a_float_tuple_would():
    def field(y):
        x, v, k = y
        return (v, -k * x - 0.1 * v * v * x, 0.0 * k)

    y0 = ([1.0, -0.3, 2.5, 0.0], [0.0, 1.2, -0.7, 0.4], [1.0, 0.5, 3.0, 2.0])
    out = ko.rk4(field, tuple(np.array(c) for c in y0), 0.05, 40)
    assert out.shape == (41, 3, 4)
    for i, start in enumerate(zip(*y0)):
        assert np.array_equal(out[:, :, i], ko.rk4(field, start, 0.05, 40))


@pytest.mark.parametrize("y0", [
    (),
    (np.zeros(0), np.zeros(0)),
    (np.zeros(3), np.zeros(2)),
    (np.zeros(2), 1.0),
    (np.zeros((2, 2)), np.zeros((2, 2))),
])
def test_rk4_rejects_empty_or_mismatched_states(y0):
    with pytest.raises(ValueError):
        ko.rk4(lambda y: y, y0, 0.1, 3)


def test_conserved_matches_flow_sweep():
    rng = np.random.default_rng(29)
    refused = []
    for _ in range(100):
        o = random_orbit(rng, e_max=1.5)
        try:
            traj = newton_flow(o)
        except ko.IntegrationError as err:
            refused.append((o.eccentricity, str(err)))
            continue
        e_measured = traj.energies()[-1]
        m_measured = abs(traj.ang_momenta()[-1])
        _, E, M = conserved(o)
        assert abs(e_measured - E) <= 1e-6 * (1.0 + abs(E))
        assert abs(m_measured - M) <= 1e-6 * (1.0 + M)
    # the one draw whose period step doubling cannot close within its cap
    ((ecc, message),) = refused
    assert ecc == pytest.approx(0.99989, abs=1e-5)
    assert message.startswith("steps=64000 reached the cap 64000 with estimate ")


def test_orbit_dict_round_trip():
    o = from_abc(0.5, -0.25, 1.25)
    assert from_abc(**ko.orbit_to_dict(o)) == o


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plane_point_rejects_non_finite_coordinates(bad):
    for coords in ((bad, 1.0), (1.0, bad), (bad, 0.0)):
        with pytest.raises(OrbitError, match="finite"):
            PlanePoint(*coords)


def test_plane_point_is_an_immutable_value():
    p = PlanePoint(x=0.25, y=-1.5)
    assert (p.x, p.y, p.as_tuple()) == (0.25, -1.5, (0.25, -1.5))
    assert p.r == math.hypot(0.25, -1.5) and p.theta == math.atan2(-1.5, 0.25)
    assert repr(p) == "PlanePoint(x=0.25, y=-1.5)"
    with pytest.raises(OrbitError, match="^the origin is excluded from the Kepler plane$"):
        PlanePoint(0.0, -0.0)
    with pytest.raises(OrbitError, match=r"^coordinates must be finite, got \(nan, 1.0\)$"):
        PlanePoint(x=math.nan, y=1.0)
    # equal and hashed by value, but never equal to a bare tuple
    q = PlanePoint(0.25, -1.5)
    assert p == q and not p != q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != PlanePoint(0.25, 1.5)
    assert p != (0.25, -1.5) and (0.25, -1.5) != p
    for name in ("x", "y", "z"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(p, name, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(p, name)
    assert (p.x, p.y) == (0.25, -1.5)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(twin) is PlanePoint and twin == p and repr(twin) == repr(p)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(p, proto)) == p
