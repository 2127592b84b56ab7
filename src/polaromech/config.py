"""Flat key-value configuration parsing and the baseline parameter set.

Config files are plain text, one ``key = value`` pair per line, ``#`` starts
a comment. All keys carry their unit in the name; detuning is given in units
of the mechanical frequency because that is how it is swept in practice.
"""

import dataclasses
import math

from .params import SystemParams, ParameterError

# The baseline table of the README: 5 ng mirror, 810 nm drive, 2 pi x 10 MHz
# mechanical mode, g0 = 242.4 rad/s, Q_c = 1e8, Q_m = 1e5, 400 mK bath,
# 50 mW drive. Mass, power, wavelength, omega_m, Q_m and bath temperature
# match the standard parameter set of Vitali et al., PRL 98, 030405 (2007).
# The operating point defaults to the red sideband (Delta_c = omega_m) with
# a vertical (theta = 0) drive polarization.
PAPER_BASELINE = {
    "mass_kg": 5e-12,
    "wavelength_m": 810e-9,
    "omega_m_rad_s": 2 * math.pi * 10e6,
    "g0_rad_s": 242.4,
    "q_cavity": 1e8,
    "q_mech": 1e5,
    "temperature_k": 0.4,
    "power_w": 0.050,
    "delta_c_over_omega_m": 1.0,
    "theta_rad": 0.0,
}

# config key -> SystemParams field, in config-key order. Every value passes
# through unchanged except the detuning, which is given in units of omega_m.
_KEY_TO_FIELD = {
    "mass_kg": "mass",
    "wavelength_m": "wavelength",
    "omega_m_rad_s": "mech_freq",
    "g0_rad_s": "single_photon_coupling",
    "q_cavity": "optical_quality",
    "q_mech": "mech_quality",
    "temperature_k": "temperature",
    "power_w": "drive_power",
    "delta_c_over_omega_m": "cavity_detuning",
    "theta_rad": "polarization_angle",
}
CONFIG_KEYS = tuple(_KEY_TO_FIELD)
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


class ConfigError(ValueError):
    """Bad configuration text: unknown/missing key, malformed or out-of-range value."""

    def __init__(self, message, key=None, line=None):
        where = ""
        if key is not None:
            where += " (key %r" % key
            where += ", line %d)" % line if line is not None else ")"
        super().__init__(message + where)
        self.key = key
        self.line = line


def build_params(mapping):
    """Construct SystemParams from a complete config-key mapping (SI per key names)."""
    missing = [k for k in CONFIG_KEYS if k not in mapping]
    if missing:
        raise ConfigError("missing configuration key", key=missing[0])
    unknown = [k for k in mapping if k not in CONFIG_KEYS]
    if unknown:
        raise ConfigError("unknown configuration key", key=unknown[0])
    fields = {f: mapping[k] for k, f in _KEY_TO_FIELD.items()}
    try:
        fields["cavity_detuning"] = (fields["cavity_detuning"]
                                     * float(fields["mech_freq"]))
        return SystemParams(**fields)
    except ParameterError as err:
        key = _FIELD_TO_KEY.get(err.field_name, err.field_name)
        raise ConfigError("out-of-range value: %s" % err, key=key) from err
    except TypeError as err:
        raise ConfigError("malformed value: %s" % err) from err


def parse_config(text, defaults=None):
    """Parse config text into SystemParams.

    defaults=None requires every key to be present; defaults="paper" fills
    absent keys from PAPER_BASELINE. Unknown keys and malformed numbers are
    always errors, with the key name and line number attached.
    """
    if defaults not in (None, "paper"):
        raise ValueError("defaults must be None or 'paper', got %r" % (defaults,))
    parsed = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value', got %r" % raw.strip(),
                              line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError("unknown configuration key", key=key, line=lineno)
        if key in parsed:
            raise ConfigError("duplicate configuration key", key=key, line=lineno)
        try:
            parsed[key] = float(value)
        except ValueError:
            raise ConfigError("malformed number %r" % value,
                              key=key, line=lineno) from None
        lines[key] = lineno

    if defaults == "paper":
        merged = dict(PAPER_BASELINE)
        merged.update(parsed)
    else:
        merged = parsed
    try:
        return build_params(merged)
    except ConfigError as err:
        if err.key in lines and err.line is None:
            raise ConfigError(str(err.args[0]).split(" (key")[0],
                              key=err.key, line=lines[err.key]) from err
        raise


def params_record(p):
    """Invert a SystemParams back to its flat config-key mapping.

    Round-trips with build_params up to rounding in the detuning ratio;
    used to record full provenance alongside sweep results.
    """
    record = {k: getattr(p, f) for k, f in _KEY_TO_FIELD.items()}
    record["delta_c_over_omega_m"] = p.cavity_detuning / p.mech_freq
    return record


def paper_params(**overrides):
    """The baseline SystemParams, optionally with fields replaced.

    Overrides use SystemParams field names (SI values), e.g.
    paper_params(cavity_detuning=0.6 * omega_m, polarization_angle=0.3).
    """
    base = build_params(PAPER_BASELINE)
    if overrides:
        return dataclasses.replace(base, **overrides)
    return base
