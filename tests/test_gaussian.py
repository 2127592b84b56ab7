import math

import numpy as np
import pytest
from oracles import random_physical_cm, two_mode_squeezed_cm

from polaromech import (BipartiteCM, log_negativity, min_symplectic_pt,
                        reduce_bipartite, symplectic_form, validate_cm,
                        intracavity_cm, paper_params)
from polaromech.gaussian import (min_symplectic_pt_spectral,
                                 symplectic_eigenvalues)


def test_symplectic_form():
    omega = symplectic_form(2)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(omega, np.block([[j, np.zeros((2, 2))],
                                           [np.zeros((2, 2)), j]]))
    assert np.array_equal(omega.T, -omega)


def test_vacuum_symplectic_spectrum():
    v = 0.5 * np.eye(4)
    assert np.allclose(symplectic_eigenvalues(v), [0.5, 0.5], atol=1e-14)
    assert min_symplectic_pt(v) == pytest.approx(0.5, abs=1e-14)
    assert log_negativity(v) == 0.0


def test_thermal_product_state_separable():
    v = np.diag([1.7, 1.7, 3.2, 3.2])
    assert np.allclose(symplectic_eigenvalues(v), [1.7, 3.2], atol=1e-12)
    assert log_negativity(v) == 0.0


def test_two_mode_squeezed_analytic():
    for r in (0.1, 0.5, 1.0, 2.0):
        v = two_mode_squeezed_cm(r)
        nu = min_symplectic_pt(v)
        assert nu == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-12)
        assert log_negativity(v) == pytest.approx(2.0 * r, rel=1e-12)


def test_closed_form_matches_spectral_route():
    rng = np.random.default_rng(21)
    for _ in range(300):
        v = random_physical_cm(rng)
        assert abs(min_symplectic_pt(v)
                   - min_symplectic_pt_spectral(v)) < 1e-9


def test_log_negativity_zero_is_exact():
    # separable states must return the float 0.0, not just something small
    rng = np.random.default_rng(22)
    v = random_physical_cm(rng)
    nu = min_symplectic_pt(v)
    if nu >= 0.5:
        assert log_negativity(v) == 0.0
    v2 = np.diag([0.6, 0.6, 0.9, 0.9])
    assert log_negativity(v2) == 0.0


def test_log_negativity_continuity_at_threshold():
    # E_N is continuous through nu = 1/2: tiny entanglement, tiny E_N
    r = 1e-7
    v = two_mode_squeezed_cm(r)
    en = log_negativity(v)
    assert 0.0 <= en <= 3e-7


def test_reduce_bipartite_order_preserved():
    v, _, _ = intracavity_cm(paper_params(polarization_angle=0.3))
    m = np.asarray(v)
    bp = reduce_bipartite(v, ("te", "mech"))
    idx = [0, 1, 4, 5]
    assert np.array_equal(np.asarray(bp), m[np.ix_(idx, idx)])
    # swapped order swaps the blocks
    bp2 = reduce_bipartite(v, ("mech", "te"))
    assert np.array_equal(bp2.block_a, bp.block_b)
    assert np.array_equal(bp2.block_b, bp.block_a)
    assert log_negativity(bp) == pytest.approx(log_negativity(bp2), rel=1e-12)


def test_reduce_bipartite_rejects_bad_pairs():
    v, _, _ = intracavity_cm(paper_params())
    with pytest.raises(ValueError):
        reduce_bipartite(v, ("te", "te"))
    with pytest.raises(ValueError):
        reduce_bipartite(v, ("te", "bogus"))


def test_bipartite_wrapper_shape_check():
    with pytest.raises(ValueError):
        BipartiteCM(np.eye(6))


def test_unphysical_input_raises():
    with pytest.raises(ArithmeticError):
        min_symplectic_pt(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_non_finite_input_raises():
    # a NaN must not reach log_negativity, where max(0.0, nan) reads 0.0
    v = 0.5 * np.eye(4)
    v[0, 2] = v[2, 0] = np.nan
    with pytest.raises(ArithmeticError):
        min_symplectic_pt(v)
    with pytest.raises(ArithmeticError):
        log_negativity(v)


def test_validate_cm_vacuum_physical():
    rep = validate_cm(0.5 * np.eye(6))
    assert rep.physical
    assert np.allclose(rep.symplectic_eigenvalues, 0.5, atol=1e-12)
    assert rep.margin >= -1e-12


def test_validate_cm_flags_below_vacuum():
    rep = validate_cm(0.4 * np.eye(6))
    assert not rep.physical
    assert rep.margin == pytest.approx(-0.1, abs=1e-9)
    assert "physical=False" in str(rep)


def test_validate_cm_never_raises_on_garbage():
    rep = validate_cm(np.diag([1.0, -2.0, 1.0, 1.0]))
    assert not rep.physical


def test_complementarity_between_polarizations():
    # E_N,te(theta) == E_N,tm(pi/2 - theta) by the TE<->TM swap symmetry
    for theta in (0.2, 0.6, 1.1):
        v1, _, _ = intracavity_cm(paper_params(polarization_angle=theta))
        v2, _, _ = intracavity_cm(
            paper_params(polarization_angle=math.pi / 2 - theta))
        en_te = log_negativity(reduce_bipartite(v1, ("te", "mech")))
        en_tm = log_negativity(reduce_bipartite(v2, ("tm", "mech")))
        assert abs(en_te - en_tm) < 1e-10
