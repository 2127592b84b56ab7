"""Properties of the bright-mode reduction over drawn operating points.

The pipeline solves the 4x4 (bright, mech) system and rotates it to TE/TM;
these compare it with the 6x6 model of drift_matrix and with its own
polarization symmetry.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import bartels_stewart_lyapunov, van_loan_output_cm

from polaromech import (PAPER_BASELINE, UnstableOperatingPointError,
                        build_params, diffusion_matrix, drift_matrix,
                        entanglement, intracavity_cm, output_cm_at,
                        paper_params)
from polaromech.sweep import _evaluate_point

TWO_PI = 2.0 * math.pi

thetas = st.floats(0.0, TWO_PI, exclude_max=True)
axis_thetas = st.sampled_from([0.0, math.pi / 2, math.pi, 3 * (math.pi / 2)])
detunings = st.floats(0.5, 1.5)            # Delta_c / omega_m
powers = st.floats(0.005, 0.08)            # W
log_q = st.floats(6.0, 9.0)                # log10 Q_c
epsilons = st.sampled_from([1.0, 5.0, 10.0, 20.0])
omegas = st.floats(-2.0, 0.0)              # Omega / omega_m


def _params(theta, detuning, power, q):
    w = paper_params().mech_freq
    return paper_params(polarization_angle=theta, cavity_detuning=detuning * w,
                        drive_power=power, optical_quality=10.0 ** q)


def _record(theta, detuning, power, q):
    return dict(PAPER_BASELINE, theta_rad=theta, delta_c_over_omega_m=detuning,
                power_w=power, q_cavity=10.0 ** q)


def _stable_intracavity(p):
    try:
        return intracavity_cm(p)
    except UnstableOperatingPointError:
        assume(False)


@given(thetas, detunings, powers, log_q)
def test_intracavity_matches_full_model(theta, detuning, power, q):
    v, dp, ss = _stable_intracavity(_params(theta, detuning, power, q))
    v = np.asarray(v)
    exact = bartels_stewart_lyapunov(drift_matrix(ss, dp), diffusion_matrix(dp))
    assert np.abs(v - exact).max() <= 1e-10 * np.abs(exact).max()


@given(thetas, detunings, powers, log_q)
def test_te_at_theta_is_tm_at_complement(theta, detuning, power, q):
    p = _params(theta, detuning, power, q)
    _stable_intracavity(p)
    # pi/2 - theta wrapped into [0, 2 pi); fmod is exact, so it stays below
    twin = _params(math.fmod(math.pi / 2 - theta + TWO_PI, TWO_PI),
                   detuning, power, q)
    assert abs(entanglement(p, ("te", "mech"))
               - entanglement(twin, ("tm", "mech"))) <= 1e-12


@given(axis_thetas, detunings, powers, log_q)
def test_dark_mode_exact_vacuum_on_the_axes(theta, detuning, power, q):
    v, _, ss = _stable_intracavity(_params(theta, detuning, power, q))
    v = np.asarray(v)
    dark = [2, 3] if ss.sin_theta == 0.0 else [0, 1]
    rest = [i for i in range(6) if i not in dark]
    assert np.array_equal(v[np.ix_(dark, dark)], 0.5 * np.eye(2))
    assert np.all(v[np.ix_(dark, rest)] == 0.0)
    assert np.all(v[np.ix_(rest, dark)] == 0.0)


@settings(max_examples=4)
@given(thetas, detunings, powers, log_q, epsilons, omegas)
def test_output_matches_van_loan_on_full_model(theta, detuning, power, q,
                                               epsilon, omega):
    p = _params(theta, detuning, power, q)
    _stable_intracavity(p)
    v, dp, ss = output_cm_at(p, epsilon, omega)
    exact = van_loan_output_cm(drift_matrix(ss, dp), diffusion_matrix(dp),
                               epsilon, omega)
    assert np.abs(np.asarray(v) - exact).max() <= 1e-6 * np.abs(exact).max()


@settings(max_examples=4)
@given(thetas, detunings, powers, log_q, epsilons, omegas)
def test_output_is_physical_and_swap_symmetric(theta, detuning, power, q,
                                               epsilon, omega):
    p = _params(theta, detuning, power, q)
    _stable_intracavity(p)
    v, _, _ = output_cm_at(p, epsilon, omega)
    sympl = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.eigvalsh(np.asarray(v) + 0.5j * sympl).min() >= -1e-9
    twin = _params(math.fmod(math.pi / 2 - theta + TWO_PI, TWO_PI),
                   detuning, power, q)
    te = entanglement(p, ("te", "mech"), "output", epsilon, omega)
    tm = entanglement(twin, ("tm", "mech"), "output", epsilon, omega)
    assert abs(te - tm) <= 1e-12


@given(thetas, detunings, powers, log_q)
def test_sweep_point_equals_entanglement(theta, detuning, power, q):
    record = _record(theta, detuning, power, q)
    p = build_params(record)
    _stable_intracavity(p)
    for target, pair in (("EN_TE_mech_intracavity", ("te", "mech")),
                         ("EN_TM_mech_intracavity", ("tm", "mech")),
                         ("EN_TE_TM_intracavity", ("te", "tm"))):
        value, stable, _, err = _evaluate_point(record, 10.0, -1.0, target)
        assert stable and err == ""
        assert value == entanglement(p, pair)


@settings(max_examples=1)
@given(thetas, detunings, powers, log_q, epsilons, omegas)
def test_sweep_output_point_equals_entanglement(theta, detuning, power, q,
                                                epsilon, omega):
    record = _record(theta, detuning, power, q)
    p = build_params(record)
    _stable_intracavity(p)
    value, stable, _, err = _evaluate_point(record, epsilon, omega,
                                            "EN_TE_mech_output")
    assert stable and err == ""
    assert value == entanglement(p, ("te", "mech"), "output", epsilon, omega)
