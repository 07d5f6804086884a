"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts that every backing verification case passed.  All
cases run with seed 0 and their pinned tolerances.
"""

from __future__ import annotations

from keplersym import verify as vf

SEED = 0


def _check(criterion: str, *case_fns) -> None:
    results = [fn(SEED) for fn in case_fns]
    ok = all(r.status == "pass" for r in results)
    detail = "; ".join(
        f"{r.name}: residual={r.residual:.3e} tol={r.tol:.1e}"
        if r.residual is not None
        else f"{r.name}: error"
        for r in results
    )
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_vector_field_equality():
    _check(
        "1 vector-field equality (7 generators, plane and dual, <=1e-12)",
        vf.case_vf_plane_closed_forms,
        vf.case_vf_dual_closed_forms,
    )


def test_criterion_02_commuting_square():
    _check(
        "2 commuting square (100 group elements x orbits, <=1e-8)",
        vf.case_commuting_square,
    )


def test_criterion_03_bracket_closure():
    _check(
        "3 bracket closure (rank 7, singular-value gap >= 1e6)",
        vf.case_bracket_closure,
    )


def test_criterion_04_parabola_flatness():
    _check(
        "4 parabola flatness (50 squared lines e=1 +/- 1e-6; zero-energy family flat)",
        vf.case_square_lines_flat,
        vf.case_square_zero_energy_flat,
    )


def test_criterion_05_fixed_m_flattening():
    _check(
        "5 fixed-M flattening (collinear <=1e-10; linear ODE flat)",
        vf.case_flatten_m_collinear,
        vf.case_fixed_m_flat,
    )


def test_criterion_06_fixed_e_non_flatness():
    _check(
        "6 fixed-E non-flatness (I2 closed form <=1e-10; I1 = 0; quadric <=1e-9)",
        vf.case_fixed_e_i2_closed_form,
        vf.case_fixed_e_i1_zero,
        vf.case_fixed_energy_quadric,
    )


def test_criterion_07_hill_embedding():
    _check(
        "7 Hill embedding (50 orbits; image energy -1 +/- 1e-8; radii regions)",
        vf.case_hill_embedding,
    )


def test_criterion_08_duality_dictionary():
    _check(
        "8 duality dictionary (dual curve <=1e-8; parabolic planes; pencil counts)",
        vf.case_dual_curve_agreement,
        vf.case_parabolic_point_planes,
        vf.case_ellipse_pencil_counts,
    )


def test_criterion_09_lambert_identity():
    _check(
        "9 minor-axis chord identity (100 random <=1e-10 scaled; exact 16/3 case)",
        vf.case_lambert_random,
        vf.case_lambert_exact_case,
    )


def test_criterion_10_four_vertices_tait_kneser():
    _check(
        "10 four vertices + nested osculating orbits (circle at (0.6, 0))",
        vf.case_four_vertices_fig12,
        vf.case_tait_kneser_fig12,
    )


def test_criterion_11_envelopes():
    _check(
        "11 envelopes (tangency <=1e-7 x20 members; second focus <=1e-9)",
        vf.case_envelope_minor_axis,
        vf.case_envelope_energy,
        vf.case_envelope_energy_focus,
        vf.case_envelope_hooke,
    )


def test_criterion_12_power_law_scans():
    _check(
        "12 power-law scans (wunschmann {-2,1}; fixed-M {-2,-3}; zero-E fails only -1)",
        vf.case_wunschmann_scan,
        vf.case_fixed_m_scan,
        vf.case_zero_energy_scan,
    )


def test_criterion_13_dynamics_oracle():
    _check(
        "13 dynamics oracle (membership <=1e-6; E, M conserved <=1e-8)",
        vf.case_newton_membership,
        vf.case_newton_conservation,
    )
