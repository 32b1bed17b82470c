"""Fits the empirical model parameters from logged flow data.

Three fits close the loop between telemetry and the feedforward model:
the piecewise-linear valve flow coefficient curve (alpha, theta_zero),
the tank feedforward constant gamma, and the choked-flow constant k.
All fits are exact inverses on noiseless model-generated data. The Cv
fit screens its breakpoint grid in closed form and confirms only the best.
"""

import math
from itertools import compress, count, repeat
from operator import attrgetter, ge, mul, truediv
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .errors import DegenerateFitError, EregSimError
from .fluids import CHOKED_PRESSURE_RATIO, FULL_TRAVEL
from .scenario import EREG_NAMES
from .telemetry import TelemetryFrame, liquid_depletion_time

THETA_GRID_STEP = 0.1  # degrees, breakpoint search resolution
_NO_FLOW = "no positive slope found: samples carry no flow"

# Steady-state detection for gamma fitting: regulation error below half the
# reported accuracy, sustained long enough to exclude transients.
STEADY_ERROR_THRESHOLD = 0.25e5  # Pa
STEADY_SUSTAIN = 0.5  # s


class FlowSample(NamedTuple):
    valve_angle: float  # degrees
    upstream_pressure: float  # Pa
    downstream_pressure: float  # Pa
    flow: float  # kg/s for gas samples, m3/s for liquid samples
    fluid_density: float  # kg/m3
    phase: str  # "gas" or "liquid"

    def validate(self) -> None:
        """A malformed sample is an error, not a row without Cv information."""
        angle, upstream, downstream, flow, density, phase = self
        if phase not in ("gas", "liquid"):
            raise EregSimError(f"unknown phase {phase!r}")
        if not 0.0 <= angle <= FULL_TRAVEL:
            raise EregSimError(f"valve angle {angle} outside [0, {FULL_TRAVEL:g}]")
        # A finite sum means every field is finite; only otherwise find the one to name.
        if not math.isfinite(upstream + downstream + flow + density):
            for name in ("upstream_pressure", "downstream_pressure", "flow", "fluid_density"):
                if not math.isfinite(getattr(self, name)):
                    raise EregSimError(f"non-finite sample field {name}")
        if phase == "liquid" and not density > 0.0:
            raise EregSimError(f"liquid sample density {density} is not above 0")


class CvFit(NamedTuple):
    alpha: float  # m2 per degree
    theta_zero: float  # degrees
    residual_rms: float
    sample_count: int


def cv_from_sample(sample: FlowSample, choked_constant: float = 0.0) -> float:
    """Invert the matching flow law to get the sample's flow coefficient.

    Liquid: Cv = Q / sqrt(dp / rho), requires a positive dp / rho.
    Gas (choked): Cv = Q / (k * p_up), requires the constant k (known or
    provisional from a previous iteration) and a positive k * p_up. A
    quotient that underflows to 0 carries no Cv information either.
    """
    sample.validate()
    _, upstream, downstream, flow, density, phase = sample
    if flow == 0.0:
        return 0.0
    if phase == "liquid":
        dp = upstream - downstream
        if dp <= 0.0 or dp / density == 0.0:
            raise ValueError("liquid sample rejected: no positive dp / rho")
        return flow / math.sqrt(dp / density)
    if choked_constant <= 0.0:
        raise ValueError("gas sample needs a positive choked constant")
    if choked_constant * upstream <= 0.0:
        raise ValueError("gas sample rejected: no positive k * p_up")
    return flow / (choked_constant * upstream)


def _breakpoint_fit(thetas: np.ndarray, cvs: np.ndarray, theta_zero) -> tuple:
    """(objective, theta_zero, alpha) of the least-squares slope with the
    breakpoint at theta_zero, from a full pass over the samples."""
    x = thetas - theta_zero
    active = x > 0.0
    denom = float(np.sum(x[active] ** 2))
    alpha = max(float(np.sum(cvs[active] * x[active])) / denom, 0.0) if denom > 0.0 else 0.0
    predicted = np.where(active, alpha * x, 0.0)
    return float(np.sum((cvs - predicted) ** 2)), theta_zero, alpha


# Overflow gives a non-finite fit, which write_fit_result rejects; numpy
# need not warn about it on stderr.
@np.errstate(over="ignore", invalid="ignore")
def fit_cv_curve(samples: list[tuple[float, float]]) -> CvFit:
    """Least-squares fit of the piecewise-linear Cv curve.

    Grid search over the breakpoint theta_zero at 0.1 degree resolution
    with the closed-form least-squares slope at each candidate; ties break
    toward the smaller breakpoint. samples are (theta, Cv) pairs. Suffix
    sums over the angle-sorted samples screen all G = 900 breakpoints in
    closed form (Hudson 1966): O(N log N + G) work, not G passes over the
    N samples. Only breakpoints within rounding of the best get the full
    pass, so the result is the plain grid loop's to the bit.
    """
    if len(samples) < 3:
        raise DegenerateFitError("need at least 3 samples to fit the Cv curve")
    thetas = np.array([s[0] for s in samples], dtype=float)
    cvs = np.array([s[1] for s in samples], dtype=float)
    if np.ptp(thetas) == 0.0:
        raise DegenerateFitError("all samples at one angle: Cv slope unidentifiable")
    if (cvs <= 0.0).all():  # every breakpoint's slope would clamp to 0
        raise DegenerateFitError(_NO_FLOW)

    candidates = np.arange(0.0, FULL_TRAVEL, THETA_GRID_STEP)
    order = np.argsort(thetas, kind="stable")
    t, c = thetas[order], cvs[order]
    terms = np.column_stack((np.ones_like(t), t, t * t, c, c * t, np.abs(t)))
    suffix = np.vstack((np.cumsum(terms[::-1], axis=0)[::-1], np.zeros(terms.shape[1])))
    # Row j sums the samples with theta > candidates[j], the active ones.
    n, s_t, s_tt, s_c, s_ct, s_abs = suffix[np.searchsorted(t, candidates, side="right")].T
    denom = s_tt - 2.0 * candidates * s_t + candidates**2 * n
    num = s_ct - candidates * s_c
    alpha = np.maximum(np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0), 0.0)
    total = float(np.sum(cvs**2))
    objective = total - 2.0 * alpha * num + alpha**2 * denom
    # Rounding bound of both objectives: 8 (N + 4) eps times the sizes of the
    # terms (Cauchy-Schwarz folds num's into the other two). A denom below
    # unit * spread has lost its digits: that breakpoint always gets the pass.
    spread = s_tt + 2.0 * candidates * s_abs + candidates**2 * n
    unit = 8.0 * (len(t) + 4) * np.finfo(float).eps
    bound = np.where(denom >= unit * spread, unit * (total + alpha**2 * spread), np.inf)
    confirm = objective - bound <= np.min(objective + bound)
    confirm |= not np.isfinite(objective).all()  # overflow: every breakpoint gets the pass

    # min keeps the first of equal objectives, like a strict < loop.
    objective, theta_zero, alpha = min(
        (_breakpoint_fit(thetas, cvs, theta_zero) for theta_zero in candidates[confirm]),
        key=lambda fit: fit[0],
    )
    if alpha <= 0.0:
        raise DegenerateFitError(_NO_FLOW)
    return CvFit(
        alpha=alpha,
        theta_zero=float(theta_zero),
        residual_rms=math.sqrt(objective / len(samples)),
        sample_count=len(samples),
    )


def fit_gamma(records: list[tuple[float, float, float]], theta_zero: float) -> float:
    """Least-squares slope of (angle - theta_zero) against min(1, s_t / p_p).

    records are steady-regulation rows of (valve_angle, tank_setpoint,
    supply_pressure). The fit is through the origin; the intercept is the
    known dead-band angle.
    """
    if len(records) < 2:
        raise DegenerateFitError("need at least 2 steady records to fit gamma")
    ratios = [min(1.0, s / p) for _, s, p in records]
    # Rounding is monotone and no ratio is NaN: the rounded ratios differ
    # somewhere exactly when the rounded extremes differ.
    if round(min(ratios), 12) == round(max(ratios), 12):
        raise DegenerateFitError("need at least 2 distinct pressure ratios to fit gamma")
    num = sum(r * (angle - theta_zero) for (angle, _, _), r in zip(records, ratios))
    den = sum(r * r for r in ratios)
    if den == 0.0:
        raise DegenerateFitError("all pressure ratios are zero")
    return num / den


def choked_samples(samples: list[FlowSample]) -> list[FlowSample]:
    """The gas samples in the choked regime (downstream/upstream below the
    critical ratio), the only ones the choked-constant fit uses. A sample
    with no upstream pressure, as a depleted supply logs, is not choked."""
    chosen = []
    for sample in samples:
        sample.validate()
        _, upstream, downstream, _, _, phase = sample
        if phase == "gas" and upstream > 0.0 and downstream / upstream < CHOKED_PRESSURE_RATIO:
            chosen.append(sample)
    return chosen


def fit_choked_constant(
    samples: list[FlowSample], alpha: float, theta_zero: float
) -> float:
    """Least-squares slope of gas mass flow against Cv * p_up through the origin.

    Only choked_samples(samples) are used; the valve curve (alpha,
    theta_zero) supplies the Cv of each sample from its angle.
    """
    xs, ys = [], []
    for angle, upstream, _, flow, _, _ in choked_samples(samples):
        xs.append(max(0.0, alpha * (angle - theta_zero)) * upstream)
        ys.append(flow)
    den = sum(x * x for x in xs)
    if den == 0.0:
        raise DegenerateFitError("no choked samples with open valve: k unidentifiable")
    return sum(x * y for x, y in zip(xs, ys)) / den


# ---------------------------------------------------------------------------
# Telemetry adapters


def _ereg(name: str) -> str:
    """name, a regulator name; any other is an EregSimError naming it."""
    if name not in EREG_NAMES:
        raise EregSimError(f"unknown regulator {name!r}, not one of {', '.join(EREG_NAMES)}")
    return name


def steady_records(
    frames: list[TelemetryFrame], ereg_name: str
) -> list[tuple[float, float, float]]:
    """Extract (angle, setpoint, supply_pressure) rows in steady regulation.

    A frame counts as steady once the regulation error has stayed below
    STEADY_ERROR_THRESHOLD for STEADY_SUSTAIN. A frame with the supply at 0 bar
    (depleted) is not steady: the feedforward ratio is undefined there.
    """
    columns = attrgetter("time_s", "supply_pressure_bar", *(
        f"{_ereg(ereg_name)}_{f}" for f in ("pressure_bar", "setpoint_bar", "valve_angle_deg")))
    records = []
    streak_start = None
    for t, supply, pressure, setpoint, angle in map(columns, frames):
        error = abs(pressure - setpoint) * 1e5
        if error < STEADY_ERROR_THRESHOLD and supply > 0.0:
            if streak_start is None:
                streak_start = t
            if t - streak_start >= STEADY_SUSTAIN:
                records.append((angle, setpoint * 1e5, supply * 1e5))
        else:
            streak_start = None
    return records


def liquid_samples_from_telemetry(
    frames: list[TelemetryFrame], side: str, density: float
) -> list[FlowSample]:
    """Liquid FlowSamples for one injector regulator from a telemetry log.

    Upstream is the tank sensor, downstream the injector sensor; the
    implied Cv therefore lumps the feed line into the valve, matching what
    an empirical characterization sees, up to the first liquid depletion.
    An unknown side or a density not above 0 is an EregSimError.
    """
    inj_name, tank_name = _ereg(side + "_inj"), _ereg(side + "_tank")
    if not density > 0.0:
        raise EregSimError(f"liquid density {density} is not above 0")
    # The frames up to the first at or after the first liquid depletion.
    at_cutoff = map(ge, map(attrgetter("time_s"), frames), repeat(liquid_depletion_time(frames)))
    frames = frames[:next(compress(count(), at_cutoff), len(frames))]
    flows = map(truediv, map(attrgetter(f"mdot_{side}_kg_s"), frames), repeat(density))
    return _samples(frames, inj_name, tank_name, inj_name, flows, density, "liquid")


def gas_samples_from_telemetry(frames: list[TelemetryFrame], side: str) -> list[FlowSample]:
    """Gas FlowSamples for one tank regulator.

    The telemetry carries the total pressurant flow, so this is only valid
    for runs where a single tank valve is active (the standard one-valve
    characterization flow). An unknown side is an EregSimError.
    """
    tank_name = _ereg(side + "_tank")
    flows = map(attrgetter("mdot_gas_kg_s"), frames)
    return _samples(frames, tank_name, "supply", tank_name, flows, 0.0, "gas")


def _samples(frames, valve: str, upstream: str, downstream: str, flows, density: float,
             phase: str) -> list[FlowSample]:
    """The FlowSamples of frames, built in C: the valve angle of regulator
    valve, the <upstream>_pressure_bar and <downstream>_pressure_bar columns
    in Pa, and the flows."""
    pressures = (map(mul, map(attrgetter(f"{name}_pressure_bar"), frames), repeat(1e5))
                 for name in (upstream, downstream))
    return [*map(tuple.__new__, repeat(FlowSample), zip(
        map(attrgetter(f"{valve}_valve_angle_deg"), frames), *pressures, flows,
        repeat(density), repeat(phase)))]


def write_fit_result(path: str | Path, kind: str, parameters: dict) -> None:
    """Write a fit result as structured text (kind, parameters, residuals);
    a non-finite parameter is an error and no file is written."""
    for key, value in parameters.items():
        if not math.isfinite(value):
            raise EregSimError(f"fit result {key} is not finite ({value}); nothing written")
    payload = {"fit": kind}
    payload.update(parameters)
    try:
        Path(path).write_text(yaml.safe_dump(payload, sort_keys=False))
    except OSError as exc:
        raise EregSimError(f"cannot write fit result to {path}: {exc}") from exc
