from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplersym.minkowski import MinkVec, norm2
from keplersym.orbit import OrbitError, PlanePoint, from_abc, membership_residual, sample
from keplersym.symmetry import (
    J3,
    _expm,
    AlgebraElement,
    ChartExitError,
    ConeVertexError,
    SymmetryError,
    act_dual,
    act_plane,
    algebra,
    algebra_from_matrix,
    basis,
    bracket,
    compose,
    exp_map,
    fixed_energy_algebra,
    flow,
    flow_dual,
    flow_dual_batch,
    group_element,
    identity,
    inverse,
    vf_dual,
    vf_plane,
)

# closed forms of the seven plane fields on the sheet z = +r
PLANE_FIELDS = [
    lambda x, y, r: (x, y),  # r d_r
    lambda x, y, r: (-y, x),  # d_theta
    lambda x, y, r: (r, 0.0),  # r d_x
    lambda x, y, r: (0.0, r),  # r d_y
    lambda x, y, r: (-x * x, -x * y),  # -x r d_r
    lambda x, y, r: (-x * y, -y * y),  # -y r d_r
    lambda x, y, r: (-r * x, -r * y),  # -r^2 d_r
]

# closed forms of the seven dual fields
DUAL_FIELDS = [
    lambda a, b, c: (-a, -b, -c),
    lambda a, b, c: (-b, a, 0.0),
    lambda a, b, c: (-c, 0.0, -a),
    lambda a, b, c: (0.0, -c, -b),
    lambda a, b, c: (1.0, 0.0, 0.0),
    lambda a, b, c: (0.0, 1.0, 0.0),
    lambda a, b, c: (0.0, 0.0, 1.0),
]


def test_algebra_matrix_values():
    assert np.all(algebra().matrix == 0.0)
    m = algebra(x1=1).matrix
    assert np.allclose(np.diag(m), [0.25, 0.25, 0.25, -0.75])
    m = algebra(x2=1).matrix
    assert m[0, 1] == -1.0 and m[1, 0] == 1.0


def test_algebra_structure_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = AlgebraElement(*rng.uniform(-2, 2, size=7))
        m = x.matrix
        assert abs(np.trace(m)) <= 1e-14
        assert np.all(m[:3, 3] == 0.0)
        assert m[3, 3] == -3.0 * m[0, 0]
        skew = m[:3, :3] - m[0, 0] * np.eye(3)
        assert np.max(np.abs(skew.T @ J3 + J3 @ skew)) <= 1e-14


def test_exp_identity_and_rotation():
    g = exp_map(algebra(), 1.0)
    assert np.allclose(g.matrix, np.eye(4), atol=1e-14)
    t = 0.7
    g = exp_map(algebra(x2=1), t)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.allclose(g.matrix[:2, :2], rot, atol=1e-13)


def test_exp_translation_acts_on_dual():
    t = 0.43
    g = exp_map(algebra(x5=1), t)
    v = MinkVec(0.2, -0.1, 1.3)
    w = act_dual(g, v)
    assert (w.a, w.b, w.c) == pytest.approx((v.a + t, v.b, v.c), abs=1e-13)


def test_act_plane_identity_and_dilation():
    p = PlanePoint(0.8, -0.6)
    q = act_plane(identity(), p)
    assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-15)
    t = 0.31
    q = act_plane(exp_map(algebra(x1=1), t), PlanePoint(1, 0))
    assert (q.x, q.y) == pytest.approx((math.exp(t), 0.0), abs=1e-12)


def test_act_plane_x7_first_order_motion():
    h = 1e-6
    p = PlanePoint(1.0, 0.0)
    q = act_plane(exp_map(algebra(x7=1), h), p, sheet=1)
    assert (q.x - p.x) / h == pytest.approx(-1.0, abs=1e-5)
    assert (q.y - p.y) / h == pytest.approx(0.0, abs=1e-5)


def test_act_dual_flattens_fixed_momentum_plane():
    m_sq = 1.0
    g = group_element(np.eye(3), [0.0, 0.0, -1.0 / m_sq], 1.0)
    w = act_dual(g, MinkVec(0.5, -0.2, 1.0 / m_sq))
    assert w.c == pytest.approx(0.0, abs=1e-15)
    assert (w.a, w.b) == pytest.approx((0.5, -0.2), abs=1e-15)


def test_act_dual_dilation_scales():
    t = 0.9
    g = exp_map(algebra(x1=1), t)
    v = MinkVec(0.3, 0.4, 1.2)
    w = act_dual(g, v)
    s = math.exp(-t)
    assert (w.a, w.b, w.c) == pytest.approx((s * v.a, s * v.b, s * v.c), rel=1e-12)


def test_vf_plane_example_values():
    assert vf_plane(algebra(x2=1), PlanePoint(1, 0)) == (0.0, 1.0)
    assert vf_plane(algebra(x7=1), PlanePoint(1, 0)) == (-1.0, 0.0)
    assert vf_plane(algebra(x3=1), PlanePoint(0, 1)) == (1.0, 0.0)


def test_vf_dual_example_values():
    v = MinkVec(0.7, -0.3, 1.1)
    assert vf_dual(algebra(x5=1), v).as_tuple() == (1.0, 0.0, 0.0)
    assert vf_dual(algebra(x1=1), v).as_tuple() == pytest.approx((-0.7, 0.3, -1.1))
    assert vf_dual(algebra(x2=1), MinkVec(1, 0, 0)).as_tuple() == (0.0, 1.0, 0.0)


def test_vf_plane_matches_closed_forms():
    rng = np.random.default_rng(2)
    gens = basis()
    for _ in range(200):
        x, y = rng.uniform(-3, 3, size=2)
        if math.hypot(x, y) < 1e-3:
            continue
        p = PlanePoint(x, y)
        r = p.r
        for gen, field in zip(gens, PLANE_FIELDS):
            got = vf_plane(gen, p)
            want = field(x, y, r)
            err = math.hypot(got[0] - want[0], got[1] - want[1])
            assert err <= 1e-12 * (1.0 + math.hypot(*want))


def test_vf_dual_matches_closed_forms():
    rng = np.random.default_rng(3)
    gens = basis()
    for _ in range(200):
        a, b, c = rng.uniform(-3, 3, size=3)
        v = MinkVec(a, b, c)
        for gen, field in zip(gens, DUAL_FIELDS):
            got = vf_dual(gen, v).as_tuple()
            want = field(a, b, c)
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err <= 1e-12 * (1.0 + max(map(abs, want)))


def test_bracket_basics():
    x = algebra(x2=1, x5=0.3)
    z = bracket(x, x)
    assert np.max(np.abs(z.coords())) == 0.0
    got = bracket(algebra(x2=1), algebra(x3=1))
    assert got.coords() == pytest.approx(algebra(x4=1).coords())


def test_bracket_bilinearity():
    rng = np.random.default_rng(4)
    x = AlgebraElement(*rng.uniform(-1, 1, size=7))
    y = AlgebraElement(*rng.uniform(-1, 1, size=7))
    z = AlgebraElement(*rng.uniform(-1, 1, size=7))
    lhs = bracket(x + 2.0 * y, z).coords()
    rhs = bracket(x, z).coords() + 2.0 * bracket(y, z).coords()
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bracket_closure_rank_stays_seven():
    gens = basis()
    flat = [g.matrix.ravel() for g in gens]
    for i in range(7):
        for j in range(i + 1, 7):
            br = bracket(gens[i], gens[j])
            stack = np.vstack(flat + [br.matrix.ravel()])
            s = np.linalg.svd(stack, compute_uv=False)
            assert np.sum(s > 1e-10 * s[0]) == 7


def test_algebra_from_matrix_rejects_outside():
    bad = np.eye(4)
    with pytest.raises(SymmetryError):
        algebra_from_matrix(bad)


def test_fixed_energy_fields():
    g2, g3, g4 = fixed_energy_algebra(-1.0)
    # the x3 generator's field vanishes at (1, 0) for E = -1
    assert vf_plane(g3, PlanePoint(1, 0), sheet=1) == pytest.approx((0.0, 0.0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, size=2)
        if math.hypot(x, y) < 1e-2:
            continue
        p = PlanePoint(x, y)
        r = p.r
        assert vf_plane(g2, p, 1) == pytest.approx((-y, x), abs=1e-13)
        want3 = (r + -1.0 * x * x, -1.0 * x * y)
        assert vf_plane(g3, p, 1) == pytest.approx(want3, abs=1e-12)
        want4 = (-1.0 * x * y, r + -1.0 * y * y)
        assert vf_plane(g4, p, 1) == pytest.approx(want4, abs=1e-12)


def test_fixed_energy_positive_sign_flip():
    energy = 1.0
    _, g3, _ = fixed_energy_algebra(energy)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2)
        if math.hypot(x, y) < 1e-2:
            continue
        p = PlanePoint(x, y)
        r = p.r
        v3 = (r + energy * x * x, energy * x * y)
        got = vf_plane(g3, p, sheet=-1)
        assert got == pytest.approx((-v3[0], -v3[1]), abs=1e-12)


def test_fixed_energy_dual_flow_preserves_quadric():
    for energy in (-1.0, 0.5, 2.0):
        k = abs(energy)
        gens = fixed_energy_algebra(energy)
        rng = np.random.default_rng(7)
        for gen in gens:
            a, b = rng.uniform(-1.0, 1.0, size=2)
            c = k + math.sqrt(energy * energy + a * a + b * b)
            v = flow_dual(gen, MinkVec(a, b, c), 0.8)
            q = v.a**2 + v.b**2 - (v.c - k) ** 2
            assert abs(q + energy * energy) <= 1e-9


def test_flow_rotation_and_zero_field():
    p = PlanePoint(1.0, 0.5)
    t = 0.6
    q = flow(algebra(x2=1), p, t)
    c, s = math.cos(t), math.sin(t)
    assert (q.x, q.y) == pytest.approx((c * p.x - s * p.y, s * p.x + c * p.y), abs=1e-10)
    q = flow(algebra(), p, 2.0)
    assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-14)


def test_flow_matches_exp_action():
    p = PlanePoint(1.0, 0.0)
    t = 0.1
    via_flow = flow(algebra(x7=1), p, t)
    via_exp = act_plane(exp_map(algebra(x7=1), t), p)
    assert (via_flow.x, via_flow.y) == pytest.approx((via_exp.x, via_exp.y), abs=1e-8)


def test_flow_crosses_the_line_at_infinity():
    # x7 moves (1, 0) along x' = -x^2: x = 1 / (1 + t) passes infinity at t = -1
    # and reaches -1 at t = -2, where e^{tX} still acts
    p, x = PlanePoint(1, 0), algebra(x7=1)
    got = flow(x, p, -2.0)
    assert got.as_tuple() == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert got.as_tuple() == pytest.approx(act_plane(exp_map(x, -2.0), p).as_tuple(), abs=1e-12)


# flow1.0 ops of the benchmark's dynamics rounds (seed/round 31/5, 0/17, 3/24,
# 24/9, 32/23) whose paths leave the affine chart or run out to r ~ 190 and 380
_FAR_FLOWS = [
    ((0.2341836910146346, 0.1661559839512446, -0.1672108328495259, 0.23880626273412203,
      0.21405318031428028, 0.13242802453630265, -0.26181213640700063),
     (-1.4538800884311809, -1.1484144153314608), 0.9972167407581618),
    ((0.1861723288885227, 0.28270638625837136, -0.278354160102202, 0.25425533945008777,
      -0.04167512405033602, -0.2762066958360629, -0.18061772906803494),
     (-0.7122826476459487, 1.8435336606133403), 0.9946341764588288),
    ((0.12910233860094755, -0.015742079576786305, 0.14830847405920722, -0.05056470621282308,
      0.2439462862538127, -0.2966797370739952, -0.29960449694536023),
     (-1.7314349206558641, 0.752470363516585), 0.9905013822943366),
    ((0.1139118543365778, -0.16632374514742831, -0.16788502952853882, -0.24438072477689976,
      -0.20975266050157504, 0.2538673611764753, -0.17196270323467608),
     (1.0898860967595023, -1.4486899294761797), 0.9867597791248318),
    ((0.015877111301581315, -0.2628274367377829, 0.23285809539417085, -0.24944534971757382,
      -0.29614267778253994, 0.19434189007804092, -0.2794197511938837),
     (1.027230397360511, -0.8483504711681826), 1.0006604164157438),
]


@pytest.mark.parametrize("gen,start,t", _FAR_FLOWS,
                         ids=["31/5", "0/17", "3/24", "24/9", "32/23"])
def test_flow_follows_expm_off_the_chart(gen, start, t):
    from scipy.linalg import expm

    gen, (x, y) = AlgebraElement(*gen), start
    image = expm(t * gen.matrix) @ np.array([x, y, math.hypot(x, y), 1.0])
    want = image[:2] / image[3]
    got = np.array(flow(gen, PlanePoint(x, y), t).as_tuple())
    assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def _reference_rk4(field, y: np.ndarray, t: float) -> np.ndarray:
    """RK4 in the flows' default max(200, ceil(2000|t|)) steps."""
    steps = max(200, math.ceil(abs(t) * 2000))
    h = t / steps
    for _ in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_flows_integrate_the_public_fields():
    # the plane flow integrates u' = X u on the cone lift, each row of the public
    # matrix summed in column order, and projects once; the dual flow integrates
    # exactly the field that vf_dual reports
    rng = np.random.default_rng(11)
    for sheet in (1, -1):
        for t in (0.4, -0.25):
            gen = AlgebraElement(*rng.uniform(-0.3, 0.3, size=7))
            r, phi = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            p = PlanePoint(r * math.cos(phi), r * math.sin(phi))
            m = gen.matrix
            u = _reference_rk4(
                lambda u: np.array([m[k, 0] * u[0] + m[k, 1] * u[1] + m[k, 2] * u[2]
                                    + m[k, 3] * u[3] for k in range(4)]),
                np.array([p.x, p.y, sheet * p.r, 1.0]), t)
            got = flow(gen, p, t, sheet=sheet)
            assert (got.x, got.y) == (u[0] / u[3], u[1] / u[3])
            v = MinkVec(*rng.uniform(-1.0, 1.0, size=2), rng.uniform(1.5, 3.0))
            want = _reference_rk4(
                lambda y: np.array(vf_dual(gen, MinkVec(*y.tolist())).as_tuple()),
                np.array(v.as_tuple()), t)
            assert flow_dual(gen, v, t).as_tuple() == tuple(want.tolist())


@pytest.mark.parametrize("call", [
    lambda p: flow(algebra(x2=1), p, 0.1, sheet=2),
    lambda p: vf_plane(algebra(x2=1), p, sheet=2),
    lambda p: act_plane(identity(), p, sheet=2),
])
def test_plane_action_rejects_other_sheets(call):
    with pytest.raises(SymmetryError, match="sheet"):
        call(PlanePoint(1.0, 0.5))


def _seeded_elements(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield exp_map(AlgebraElement(*rng.uniform(-1.5, 1.5, size=7)), rng.uniform(-1.0, 1.0)), rng


def test_group_element_rows_equal_the_matrix():
    for g, _ in _seeded_elements(21, 5):
        assert g.rows == tuple(tuple(row) for row in g.matrix.tolist())
        assert all(type(v) is float for row in g.rows for v in row)
        assert g.rows is g.rows  # computed once


def test_act_plane_is_the_projected_matrix_image():
    # the float kernel against pi(g.matrix @ q), q = (x, y, sheet*r, 1): equal where
    # numpy's matmul pairs the terms as act_plane does, and otherwise within two
    # ulp per unit of the condition number kappa of the numerator and w sums
    for g, rng in _seeded_elements(22, 40):
        for _ in range(25):
            p = PlanePoint(*rng.uniform(-4.0, 4.0, size=2))
            for sheet in (1, -1):
                q4 = np.array([p.x, p.y, sheet * p.r, 1.0])
                u, terms = g.matrix @ q4, np.abs(g.matrix * q4).sum(axis=1)
                try:
                    q = act_plane(g, p, sheet)
                except ChartExitError:
                    assert abs(u[3]) <= 1e-9 * terms[3]
                    continue
                for k, got in enumerate((q.x, q.y)):
                    kappa = terms[k] / abs(u[k]) + terms[3] / abs(u[3])
                    assert abs(got - u[k] / u[3]) <= 2.0 * kappa * math.ulp(u[k] / u[3])


def test_act_plane_chart_exit_and_cone_vertex():
    # w = lam + b.q = 1 - x vanishes at (1, 0)
    with pytest.raises(ChartExitError, match="^image leaves the affine chart$"):
        act_plane(group_element(np.eye(3), (-1.0, 0.0, 0.0), 1.0), PlanePoint(1.0, 0.0))
    # a dilation by 1e-13 puts the image inside the vertex tolerance
    with pytest.raises(ConeVertexError, match="^image crosses the cone vertex$"):
        act_plane(group_element(1e-13 * np.eye(3), (0.0, 0.0, 0.0), 1.0), PlanePoint(1.0, 0.0))
    for sheet in (0, 2, -1.5):
        for call in (lambda: act_plane(identity(), PlanePoint(1.0, 0.0), sheet),
                     lambda: vf_plane(algebra(x1=1.0), PlanePoint(1.0, 0.0), sheet)):
            with pytest.raises(SymmetryError, match=r"^sheet must be \+1 or -1$"):
                call()


def test_plane_kernels_keep_the_cone_lift_formulas_bits():
    # the former kernels, written out: the lift z = sheet * r with r = p.r, then
    # act_plane's row sums over the cached rows and vf_plane's field
    for g, rng in _seeded_elements(24, 12):
        x = AlgebraElement(*rng.uniform(-1.0, 1.0, size=7))
        q, x2, x3, x4, x5, x6, x7 = float(x.x1) / 4.0, *map(float, x.coords()[1:].tolist())
        (a0, a1, a2, a3), (b0, b1, b2, b3), _, (w0, w1, w2, w3) = g.rows
        for _ in range(20):
            p = PlanePoint(*rng.uniform(-4.0, 4.0, size=2).tolist())
            for sheet in (1, -1):
                px, py, pz = p.x, p.y, sheet * p.r
                w = (w0 * px + w2 * pz) + (w1 * py + w3)
                want = (((a0 * px + a2 * pz) + (a1 * py + a3)) / w,
                        ((b0 * px + b2 * pz) + (b1 * py + b3)) / w)
                got = act_plane(g, p, sheet)
                assert np.array(got.as_tuple()).tobytes() == np.array(want).tobytes()
                u3 = (x5 * px + x7 * pz) + (x6 * py - 3.0 * q)
                want = ((q * px + x3 * pz) - x2 * py - px * u3,
                        (x2 * px + x4 * pz) + q * py - py * u3)
                assert np.array(vf_plane(x, p, sheet)).tobytes() == np.array(want).tobytes()


def test_vf_plane_is_the_matrix_formula():
    # u[:2] - (x, y) u[3] for u = X q, relative to the size of its terms
    rng = np.random.default_rng(23)
    for _ in range(200):
        gen = AlgebraElement(*rng.uniform(-3.0, 3.0, size=7))
        p = PlanePoint(*rng.uniform(-4.0, 4.0, size=2))
        for sheet in (1, -1):
            u = gen.matrix @ np.array([p.x, p.y, sheet * p.r, 1.0])
            got = vf_plane(gen, p, sheet)
            for k, c in enumerate((p.x, p.y)):
                terms = np.abs(gen.matrix[k] * [p.x, p.y, p.r, 1.0]).sum() + abs(c * u[3])
                assert abs(got[k] - (u[k] - c * u[3])) <= 2e-16 * terms


_bounded = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_bounded, min_size=7, max_size=7), st.floats(-2.0, 2.0),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.sampled_from((1, -1)),
       st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_actions_raise_only_symmetry_or_orbit_errors(coords, t, x, y, sheet, abc):
    try:
        g = exp_map(AlgebraElement(*coords), t)
    except SymmetryError:
        return
    try:
        act_plane(g, PlanePoint(x, y), sheet)
    except (SymmetryError, OrbitError):
        pass
    try:
        act_dual(g, MinkVec(*abc))
    except (SymmetryError, OrbitError):
        pass


def test_one_parameter_subgroup():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = AlgebraElement(*rng.uniform(-0.8, 0.8, size=7))
        g = compose(exp_map(x, 0.4), exp_map(x, 0.35))
        h = exp_map(x, 0.75)
        assert np.max(np.abs(g.matrix - h.matrix)) <= 1e-11


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(9)
    x = AlgebraElement(*rng.uniform(-0.5, 0.5, size=7))
    g = exp_map(x, 1.0)
    assert np.max(np.abs(compose(g, inverse(g)).matrix - np.eye(4))) <= 1e-12


def test_commuting_square_small_sweep():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 25:
        x = AlgebraElement(*rng.uniform(-0.3, 0.3, size=7))
        g = exp_map(x, 1.0)
        c = rng.uniform(0.6, 1.6)
        ecc = rng.uniform(0.0, 1.4)
        phi = rng.uniform(0, 2 * math.pi)
        o = from_abc(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)
        image_dual = act_dual(g, o.dual())
        if abs(image_dual.c) < 1e-3:
            continue
        image = from_abc(image_dual.a, image_dual.b, image_dual.c)
        for p in sample(o, 20):
            try:
                q = act_plane(g, p, sheet=1)
            except SymmetryError:
                continue
            assert membership_residual(image, q.x, q.y) <= 1e-8
        checked += 1


@pytest.mark.parametrize("bound,t_max,rel", [(0.8, 1.2, 1e-15), (3.0, 3.0, 5e-12)])
def test_exponential_matches_scipy_expm(bound, t_max, rel):
    from scipy.linalg import expm

    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = AlgebraElement(*rng.uniform(-bound, bound, size=7))
        t = float(rng.uniform(-t_max, t_max))
        want = expm(t * x.matrix)
        got = _expm(t * x.matrix)
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))
        if bound < 1.0:  # larger elements can fail the group check, scipy's images too
            assert np.array_equal(exp_map(x, t).matrix, got)


def test_exp_map_of_zero_is_the_identity():
    for t in (0.0, 1.0, -2.5):
        assert np.array_equal(exp_map(algebra(), t).matrix, np.eye(4))


def test_exp_map_rejects_non_finite_generators():
    with pytest.raises(SymmetryError, match="finite"):
        exp_map(algebra(x2=math.inf))


def test_vf_dual_matches_the_matrix_product():
    # the field is summed in Python; BLAS may round the 1x4 @ 4x4 product differently
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = AlgebraElement(*rng.uniform(-2.0, 2.0, size=7))
        v = MinkVec(*rng.uniform(-3.0, 3.0, size=3))
        w = -(np.array([v.a, v.b, v.c, -1.0]) @ x.matrix)
        want = w[:3] + np.array(v.as_tuple()) * w[3]
        got = np.array(vf_dual(x, v).as_tuple())
        assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("t", [0.8, -0.3])
def test_flow_dual_batch_equals_single_flows(t):
    rng = np.random.default_rng(14)
    gens = [AlgebraElement(*rng.uniform(-0.5, 0.5, size=7)) for _ in range(20)]
    gens += list(fixed_energy_algebra(-1.0))
    starts = [MinkVec(*rng.uniform(-1.0, 1.0, size=2), rng.uniform(1.5, 3.0)) for _ in gens]
    for steps in (None, 100, 200):  # the default, and the counts fixed_energy_quadric first compares
        got = flow_dual_batch(gens, starts, t, steps)
        assert got == [flow_dual(x, v, t, steps) for x, v in zip(gens, starts)]


@pytest.mark.parametrize("xs,vs", [
    ([], []),
    ([algebra(x2=1.0)], []),
    ([algebra(x2=1.0)], [MinkVec(0.1, 0.2, 1.0), MinkVec(0.3, 0.2, 1.0)]),
])
def test_flow_dual_batch_rejects_mismatched_or_empty_inputs(xs, vs):
    with pytest.raises(ValueError):
        flow_dual_batch(xs, vs, 0.5)
