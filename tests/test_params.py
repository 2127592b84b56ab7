import math

import pytest
from goldens import golden_params

from polaromech import (ParameterError, SystemParams, derive_constants,
                        mean_phonon_number, polarization_split, paper_params)
from polaromech.constants import HBAR, K_BOLTZMANN

TWO_PI = 2.0 * math.pi


def test_baseline_derived_rates():
    p = golden_params()
    dp = derive_constants(p)
    assert dp.drive_freq == pytest.approx(2325495762109695.4, rel=1e-14)
    assert dp.cavity_freq == dp.drive_freq + p.cavity_detuning
    assert dp.cavity_decay == pytest.approx(47074814.270071831, rel=1e-14)
    assert dp.mech_damping == pytest.approx(628.31853071795865, rel=1e-14)
    assert dp.drive_amplitude == pytest.approx(349755675.56694178, rel=1e-14)
    assert dp.mech_freq == p.mech_freq


def test_quality_factor_definitions():
    # kappa and gamma_m are defined through the quality factors
    p = paper_params()
    dp = derive_constants(p)
    assert dp.cavity_freq / dp.cavity_decay == pytest.approx(p.optical_quality)
    assert p.mech_freq / dp.mech_damping == pytest.approx(p.mech_quality)


def test_thermal_occupancy_values():
    w = TWO_PI * 10e6
    assert mean_phonon_number(w, 0.4) == pytest.approx(832.96486491733122, rel=1e-13)
    assert mean_phonon_number(w, 2.0) == pytest.approx(4166.8238446623607, rel=1e-13)


def test_thermal_occupancy_limits():
    w = TWO_PI * 10e6
    assert mean_phonon_number(w, 0.0) == 0.0
    # cold enough that exp overflows; occupancy underflows to zero
    assert mean_phonon_number(w, 1e-9) == 0.0
    # high-T asymptote kT/(hbar w)
    hot = mean_phonon_number(w, 300.0)
    assert hot == pytest.approx(K_BOLTZMANN * 300.0 / (HBAR * w), rel=1e-3)


def test_occupancy_monotone_in_temperature():
    w = TWO_PI * 10e6
    temps = [0.01, 0.1, 0.4, 1.0, 2.0, 10.0]
    vals = [mean_phonon_number(w, t) for t in temps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_polarization_split_power_conservation():
    for theta in [0.1, 0.7, 1.2, 2.0, 3.3, 5.1]:
        ste, stm = polarization_split(2.5, theta)
        assert ste ** 2 + stm ** 2 == pytest.approx(6.25, rel=1e-15)


def test_polarization_split_axis_angles_exact():
    # axis-aligned drives must project exactly, not to cos(pi/2) ~ 6e-17
    assert polarization_split(3.0, 0.0) == (3.0, 0.0)
    assert polarization_split(3.0, math.pi / 2) == (0.0, 3.0)
    assert polarization_split(3.0, math.pi) == (-3.0, 0.0)
    assert polarization_split(3.0, 3 * (math.pi / 2)) == (0.0, -3.0)


def test_rejects_nonpositive_inputs():
    with pytest.raises(ParameterError) as err:
        paper_params(wavelength=-810e-9)
    assert err.value.field_name == "wavelength"
    with pytest.raises(ParameterError):
        paper_params(drive_power=0.0)
    with pytest.raises(ParameterError):
        paper_params(mech_freq=float("nan"))
    with pytest.raises(ParameterError):
        paper_params(temperature=-0.1)


def test_temperature_zero_allowed():
    p = paper_params(temperature=0.0)
    assert derive_constants(p).thermal_occupancy == 0.0


def test_angle_range_enforced():
    with pytest.raises(ParameterError) as err:
        paper_params(polarization_angle=TWO_PI)
    assert err.value.field_name == "polarization_angle"
    with pytest.raises(ParameterError):
        paper_params(polarization_angle=-0.1)


def test_detuning_may_be_negative():
    p = paper_params(cavity_detuning=-1e7)
    dp = derive_constants(p)
    assert dp.cavity_freq < dp.drive_freq


def test_params_frozen():
    p = paper_params()
    with pytest.raises(AttributeError):
        p.drive_power = 1.0


def test_mass_is_metadata():
    # mass never enters the derived rates
    a = derive_constants(paper_params())
    b = derive_constants(paper_params(mass=1e-3))
    assert a == b
