"""Fixed-step co-simulation of the plant and the four regulators.

Topology: supply tank -> tank regulators -> propellant tank ullages;
propellant tanks -> feed lines -> injector regulators -> injector
orifices -> thrust chamber (or atmosphere when no chamber is fitted).

Tank states advance with classical fourth-order Runge-Kutta at the
physics step: the stages integrate the four valve flows of the algebraic
network and each ullage's collapse sink, and the supply pays only for
the gas its valves pass. The engine alone keeps the multi-rate clock: it
counts physics steps on the grid of scenario.step_grid, the one every
ScenarioConfig is checked against, and, on each secondary tick, tells
every cascade whether the primary loop is due too, so a run is a
deterministic interleaving fully determined by the scenario. A Run
keeps the loop state between advance(n) calls, to be read or copied.

The plant keeps one flat float state: the supply gas mass and pressure,
and per side the ullage gas mass, ullage volume, liquid volume and stored
ullage pressure. A supply or liquid volume that empties reads exactly 0.0
and cannot refill, so the step that empties it raises its event, once.
All gas stays at the scenario's gas temperature: the supply is
isothermal like the ullages. Everything that depends only on the
scenario is computed once per run, and everything that depends only on
the valve angles once per physics step for each valve whose angle
changed (again if the oracle moves the valves before the step). A
liquid branch that is shut, or whose tank is dry, enters the chamber
back-pressure root-find at a tank pressure of -inf: its drop is never
positive, so it adds nothing to the residual, the slope or the bracket,
bit for bit as if it were left out.

Each physics step evaluates the flow network four times, once per RK4
stage, written out in step as plain float arithmetic for the two sides
plus the root-find when a chamber is fitted. Primary ticks also evaluate
it on the stored state (the snapshot) by the fluids flow laws, for the
sensors, the oracle and telemetry, as does an abort between primary
ticks for its last frame. With a chamber the other steps run only the
snapshot's root-find (warm_start), which moves the warm start of the
next stage's; without one the back-pressure is ambient. The snapshot is
not merged with the first stage: it reads the stored pressures (the
ullage one from the integrated ullage volume) while a stage recomputes
them from the masses, on V_total - V_liquid, and the last-bit difference
grows through the closed loop to more than 1e-12 relative in the
telemetry within the first 0.2 s of the baseline static fire.
"""

import math
from typing import NamedTuple

import numpy as np

from .control import Actuator, EregController, clamp
from .errors import EregSimError, ModelError
from .fluids import (
    CHOKED_PRESSURE_RATIO,
    FULL_TRAVEL,
    # Unused: only test_patch_engine_wraps_imported_names_and_unpatch_restores in
    # perfbench/tests/test_perfbench.py traces it through here, until ROADMAP item 3.
    GasTankState,
    branch_flow,
    chamber_state,
    choked_flow_fade,
    cv_of_angle,
    gas_valve_mass_flow,
)
from .scenario import (
    EREG_NAMES, SIDES, ScenarioConfig, plant_start, setpoints_at, step_grid,
)
from .telemetry import (
    EVENT_ABORT,
    EVENT_LIQUID_DEPLETED,
    EVENT_SUPPLY_DEPLETED,
    TelemetryFrame,
    _check_values,
    _frames,
)

# Chamber back-pressure root-find: converged when the residual is below
# ROOT_TOLERANCE_PA. A solve still above it after ROOT_MAX_ITERATIONS
# Newton/bisection iterations has converged too if its bracket has shrunk
# to adjacent floats and the residual is a number (a chamber gain so large
# that the tolerance is below the float spacing); else it is a model failure.
ROOT_TOLERANCE_PA = 0.5
ROOT_MAX_ITERATIONS = 60

# Per-angle constants (beta, gain * beta, rho * c) of a shut liquid branch.
_SHUT = (0.0, 0.0, None)


class NetworkFlows(NamedTuple):
    """Algebraic flow solution at one instant (fixed angles and tank states).

    Per-side fields are pairs indexed like SIDES.
    """

    mdot_gas: tuple[float, float]  # supply -> ullage
    q_liquid: tuple[float, float]  # m3/s out of the tank
    mdot_liquid: tuple[float, float]
    p_injector: tuple[float, float]
    chamber_pressure: float
    thrust: float


class _Plant:
    """Flat plant state, the RK4 step that evaluates the flow network in each
    stage, and the snapshot by the fluids laws; the Pc root-find is warm-started.

    Per-side fields are two-element lists indexed like SIDES; valves and
    angles are in EREG_NAMES order, so side i is fed through valve i and
    drains through valve 2 + i. Call set_angles before snapshot, warm_start
    or step, and again whenever the angles change.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.valves = tuple(config.valves[name] for name in EREG_NAMES)
        (self._rt, self.supply_mass, self.liquid_volume, self.ullage_volume,
         self.ullage_mass) = plant_start(config)
        self.supply_pressure = config.supply_pressure
        self.ullage_pressure = [config.tanks[s].initial_pressure for s in SIDES]

        # Per-run constants.
        self._r = config.gas_constant
        self._temperature = config.gas_temperature
        self._supply_volume = config.supply_volume
        self._total_volume = tuple(config.tanks[s].total_volume for s in SIDES)
        self._rho = tuple(config.tanks[s].liquid_density for s in SIDES)
        self._line = tuple(config.lines[s].loss_coefficient for s in SIDES)
        self._orifice = tuple(config.injectors[s].coeff for s in SIDES)
        chamber = config.chamber
        self._gain = (
            chamber.characteristic_velocity / chamber.throat_area if chamber is not None else None
        )
        self._ambient = config.ambient_pressure
        self._collapse = config.ullage_collapse_coeff
        self._pc_guess = config.ambient_pressure

        # Per valve (k, alpha, theta_zero): Cv as fluids.cv_of_angle, k for gas valves.
        self._cv_law = tuple((v.choked_constant, v.alpha, v.theta_zero) for v in self.valves)
        # Per-angle constants, filled by set_angles for the angles in _angles.
        self._angles = [None] * 4
        self._kcv = [0.0, 0.0]
        self._branch = [_SHUT, _SHUT]

    def set_angles(self, angles) -> None:
        """Precompute everything that depends only on the four valve angles,
        for each valve whose angle changed since the last call.

        Gas valves: k * Cv. Liquid branches: (beta, gain * beta, rho * c)
        with c = c_line + 1/Cv^2 + c_orifice the series coefficient and
        beta = sqrt(rho / c), or _SHUT while the valve is shut. An angle
        outside [0, FULL_TRAVEL] is a ValueError, as in fluids.cv_of_angle.
        """
        last = self._angles
        for i in (0, 1):
            theta = angles[i]
            if theta != last[i]:
                if not 0.0 <= theta <= FULL_TRAVEL:
                    raise ValueError(f"valve angle {theta} outside [0, {FULL_TRAVEL}] degrees")
                k, alpha, theta_zero = self._cv_law[i]
                cv = alpha * (theta - theta_zero)
                self._kcv[i] = k * (cv if cv > 0.0 else 0.0)
                last[i] = theta
            theta = angles[2 + i]
            if theta != last[2 + i]:
                if not 0.0 <= theta <= FULL_TRAVEL:
                    raise ValueError(f"valve angle {theta} outside [0, {FULL_TRAVEL}] degrees")
                _, alpha, theta_zero = self._cv_law[2 + i]
                cv = alpha * (theta - theta_zero)
                cv2 = (cv if cv > 0.0 else 0.0) ** 2
                if cv2 == 0.0:  # shut, or so nearly shut that Cv^2 underflows
                    self._branch[i] = _SHUT
                else:
                    coeff = self._line[i] + 1.0 / cv2 + self._orifice[i]
                    beta = math.sqrt(self._rho[i] / coeff)
                    gain_beta = self._gain * beta if self._gain is not None else 0.0
                    self._branch[i] = (beta, gain_beta, self._rho[i] * coeff)
                last[2 + i] = theta

    # -- algebraic network -------------------------------------------------

    def _back_pressure(self, p0, p1, v0, v1) -> float:
        """Chamber pressure pc consistent with the open branches of the tanks
        that hold liquid: a monotone root-find (Newton with bisection safeguard)
        of f(pc) = pc - (cstar/At) * S(pc), S(pc) = sum_i beta_i * sqrt(p_tank_i - pc),
        floored at ambient. A shut or dry branch enters at p_tank = -inf (see
        the module notes).

        The chamber stays at ambient when the flow is weak, f(ambient) >= 0.
        The first pass, at the warm start clamped to [ambient, max p_tank],
        doubles as that test: S cannot rise as pc rises, in floating point
        too, because the subtraction, the sqrt, the product by beta >= 0 and
        the sum all round monotonically, so S(ambient) >= S(pc), and with it
        gain * S(ambient) >= gain * S(pc). A first pass with
        ambient - gain * S(pc) < 0 thus rules weak flow out; only otherwise
        does the ambient pass compute S(ambient). The Newton slope is
        computed only on a pass that takes a step.
        """
        gain = self._gain
        lo = self._ambient
        if gain is None:
            return lo
        (beta0, gain_beta0, rc0), (beta1, gain_beta1, rc1) = self._branch
        p0 = p0 if rc0 is not None and v0 > 0.0 else -math.inf
        p1 = p1 if rc1 is not None and v1 > 0.0 else -math.inf
        hi = p0 if p0 > lo else lo
        hi = p1 if p1 > hi else hi
        pc = self._pc_guess
        pc = lo if lo > pc else pc
        pc = hi if hi < pc else pc
        passes = 0
        while True:
            total = 0.0
            drop0 = p0 - pc
            if drop0 > 0.0:
                root0 = math.sqrt(drop0)
                total += beta0 * root0
            drop1 = p1 - pc
            if drop1 > 0.0:
                root1 = math.sqrt(drop1)
                total += beta1 * root1
            f = pc - gain * total
            if not passes and lo - gain * total >= 0.0:
                total = 0.0  # the ambient pass
                drop = p0 - lo
                if drop > 0.0:
                    total += beta0 * math.sqrt(drop)
                drop = p1 - lo
                if drop > 0.0:
                    total += beta1 * math.sqrt(drop)
                if lo - gain * total >= 0.0:
                    return lo  # weak flow (or no open branch): chamber stays at ambient
            if abs(f) < ROOT_TOLERANCE_PA:
                break
            if f > 0.0:
                hi = pc
            else:
                lo = pc
            slope = 1.0
            if drop0 > 0.0:
                slope += gain_beta0 / (2.0 * root0)
            if drop1 > 0.0:
                slope += gain_beta1 / (2.0 * root1)
            step = pc - f / slope
            pc = step if lo < step < hi else 0.5 * (lo + hi)
            passes += 1
            if passes >= ROOT_MAX_ITERATIONS:
                if math.isnan(f) or hi > math.nextafter(lo, math.inf):
                    raise ModelError(
                        f"chamber pressure root-find did not converge in {ROOT_MAX_ITERATIONS} "
                        f"iterations (residual {f:.3g} Pa)"
                    )
                break
        self._pc_guess = pc
        return pc

    def snapshot(self) -> NetworkFlows:
        """Flows on the stored state, for telemetry, sensors and the oracle, by
        the fluids laws at the back pressure; a dry tank passes 0 at it."""
        p_sup, p_tank, v_liquid = self.supply_pressure, self.ullage_pressure, self.liquid_volume
        back = self._back_pressure(*p_tank, *v_liquid)
        angles, valves = self._angles, self.valves
        gas = tuple(gas_valve_mass_flow(valves[i], angles[i], p_sup, p_tank[i]) for i in (0, 1))
        (q0, p_inj0), (q1, p_inj1) = (
            branch_flow(p_tank[i], back, self._rho[i], cv_of_angle(valves[2 + i], angles[2 + i]),
                        self._line[i], self._orifice[i]) if v_liquid[i] > 0.0 else (0.0, back)
            for i in (0, 1))
        mdot_liquid = (q0 * self._rho[0], q1 * self._rho[1])
        if self.config.chamber is not None:
            pc, thrust = chamber_state(
                mdot_liquid[0] + mdot_liquid[1], self.config.chamber, self._ambient
            )
        else:
            pc, thrust = self._ambient, 0.0
        return NetworkFlows(gas, (q0, q1), mdot_liquid, (p_inj0, p_inj1), pc, thrust)

    def warm_start(self) -> None:
        """On a step whose snapshot nothing reads: only the snapshot's chamber
        root-find, which moves the warm start of the next RK4 stage exactly as
        snapshot() would."""
        self._back_pressure(*self.ullage_pressure, *self.liquid_volume)

    # -- integration -------------------------------------------------------

    def step(self, dt: float) -> list[str]:
        """Advance tanks one physics step (RK4); returns new event names.

        The stages integrate the valve flows and each ullage's collapse sink
        c * m. The supply pays exactly the mean gas inflow, which each ullage
        gains before it loses its mean sink. The supply and each liquid volume
        are clamped once, so one that empties is left at exactly 0.0.
        """
        s, mo, vo = self.supply_mass, self.ullage_mass[0], self.liquid_volume[0]
        mf, vf = self.ullage_mass[1], self.liquid_volume[1]
        c = self._collapse
        h = 0.5 * dt
        # Each stage evaluates the network at its own masses and volumes (module notes).
        rt, vs, (t0, t1), ambient = self._rt, self._supply_volume, self._total_volume, self._ambient
        (kcv0, kcv1), rc0, rc1 = self._kcv, self._branch[0][2], self._branch[1][2]
        open0, open1, chamber = rc0 is not None, rc1 is not None, self._gain is not None
        cpr, span, sqrt = CHOKED_PRESSURE_RATIO, 1.0 - CHOKED_PRESSURE_RATIO, math.sqrt
        ps = s * rt / vs if s > 0.0 else 0.0
        v0, v1 = (0.0 if 0.0 > vo else vo), (0.0 if 0.0 > vf else vf)
        p0, p1 = mo * rt / (t0 - v0), mf * rt / (t1 - v1)
        back = self._back_pressure(p0, p1, v0, v1) if chamber else ambient
        go1 = gf1 = 0.0
        if ps > 0.0:
            r0, r1 = p0 / ps, p1 / ps
            go1 = kcv0 * ps * (1.0 if r0 <= cpr else 0.0 if r0 >= 1.0 else (1.0 - r0) / span)
            gf1 = kcv1 * ps * (1.0 if r1 <= cpr else 0.0 if r1 >= 1.0 else (1.0 - r1) / span)
        qo1 = sqrt((p0 - back) / rc0) if open0 and v0 > 0.0 and not p0 - back <= 0.0 else 0.0
        qf1 = sqrt((p1 - back) / rc1) if open1 and v1 > 0.0 and not p1 - back <= 0.0 else 0.0
        mo2, mf2 = mo + h * (go1 - c * mo), mf + h * (gf1 - c * mf)
        m, v0, v1 = s - h * (go1 + gf1), vo - h * qo1, vf - h * qf1
        ps = m * rt / vs if m > 0.0 else 0.0
        v0, v1 = (0.0 if 0.0 > v0 else v0), (0.0 if 0.0 > v1 else v1)
        p0, p1 = mo2 * rt / (t0 - v0), mf2 * rt / (t1 - v1)
        back = self._back_pressure(p0, p1, v0, v1) if chamber else ambient
        go2 = gf2 = 0.0
        if ps > 0.0:
            r0, r1 = p0 / ps, p1 / ps
            go2 = kcv0 * ps * (1.0 if r0 <= cpr else 0.0 if r0 >= 1.0 else (1.0 - r0) / span)
            gf2 = kcv1 * ps * (1.0 if r1 <= cpr else 0.0 if r1 >= 1.0 else (1.0 - r1) / span)
        qo2 = sqrt((p0 - back) / rc0) if open0 and v0 > 0.0 and not p0 - back <= 0.0 else 0.0
        qf2 = sqrt((p1 - back) / rc1) if open1 and v1 > 0.0 and not p1 - back <= 0.0 else 0.0
        mo3, mf3 = mo + h * (go2 - c * mo2), mf + h * (gf2 - c * mf2)
        m, v0, v1 = s - h * (go2 + gf2), vo - h * qo2, vf - h * qf2
        ps = m * rt / vs if m > 0.0 else 0.0
        v0, v1 = (0.0 if 0.0 > v0 else v0), (0.0 if 0.0 > v1 else v1)
        p0, p1 = mo3 * rt / (t0 - v0), mf3 * rt / (t1 - v1)
        back = self._back_pressure(p0, p1, v0, v1) if chamber else ambient
        go3 = gf3 = 0.0
        if ps > 0.0:
            r0, r1 = p0 / ps, p1 / ps
            go3 = kcv0 * ps * (1.0 if r0 <= cpr else 0.0 if r0 >= 1.0 else (1.0 - r0) / span)
            gf3 = kcv1 * ps * (1.0 if r1 <= cpr else 0.0 if r1 >= 1.0 else (1.0 - r1) / span)
        qo3 = sqrt((p0 - back) / rc0) if open0 and v0 > 0.0 and not p0 - back <= 0.0 else 0.0
        qf3 = sqrt((p1 - back) / rc1) if open1 and v1 > 0.0 and not p1 - back <= 0.0 else 0.0
        mo4, mf4 = mo + dt * (go3 - c * mo3), mf + dt * (gf3 - c * mf3)
        m, v0, v1 = s - dt * (go3 + gf3), vo - dt * qo3, vf - dt * qf3
        ps = m * rt / vs if m > 0.0 else 0.0
        v0, v1 = (0.0 if 0.0 > v0 else v0), (0.0 if 0.0 > v1 else v1)
        p0, p1 = mo4 * rt / (t0 - v0), mf4 * rt / (t1 - v1)
        back = self._back_pressure(p0, p1, v0, v1) if chamber else ambient
        go4 = gf4 = 0.0
        if ps > 0.0:
            r0, r1 = p0 / ps, p1 / ps
            go4 = kcv0 * ps * (1.0 if r0 <= cpr else 0.0 if r0 >= 1.0 else (1.0 - r0) / span)
            gf4 = kcv1 * ps * (1.0 if r1 <= cpr else 0.0 if r1 >= 1.0 else (1.0 - r1) / span)
        qo4 = sqrt((p0 - back) / rc0) if open0 and v0 > 0.0 and not p0 - back <= 0.0 else 0.0
        qf4 = sqrt((p1 - back) / rc1) if open1 and v1 > 0.0 and not p1 - back <= 0.0 else 0.0
        gas_in = [(go1 + 2.0 * go2 + 2.0 * go3 + go4) / 6.0,
                  (gf1 + 2.0 * gf2 + 2.0 * gf3 + gf4) / 6.0]
        sink = (c * (mo + 2.0 * mo2 + 2.0 * mo3 + mo4) / 6.0,
                c * (mf + 2.0 * mf2 + 2.0 * mf3 + mf4) / 6.0)
        q_out = ((qo1 + 2.0 * qo2 + 2.0 * qo3 + qo4) / 6.0,
                 (qf1 + 2.0 * qf2 + 2.0 * qf3 + qf4) / 6.0)

        # The supply gives what the ullages draw, or all it holds shared in
        # proportion, so total gas mass is conserved at the clamp too.
        events: list[str] = []
        want = (gas_in[0] + gas_in[1]) * dt
        drawn = s if s < want else want
        if drawn < want:
            gas_in = [g * (drawn / want) for g in gas_in]
        mass = self.supply_mass - drawn
        if mass == 0.0:
            pressure = 0.0
            if self.supply_mass != 0.0:
                events.append(EVENT_SUPPLY_DEPLETED)
        else:
            pressure = mass * self._r * self._temperature / self._supply_volume
        self.supply_mass = mass
        self.supply_pressure = pressure

        for i in (0, 1):
            # Liquid drains at most what is left; the ullage grows by the
            # volume drained, integrated separately from V_total - V_liquid.
            drained, left = q_out[i] * dt, self.liquid_volume[i]
            drained = left if left < drained else drained
            liquid = left - drained
            if liquid == 0.0 and left != 0.0:
                events.append(EVENT_LIQUID_DEPLETED[i])
            volume = self.ullage_volume[i] + drained
            mass = self.ullage_mass[i] + (gas_in[i] - sink[i]) * dt
            if mass <= 0.0:
                mass = pressure = 0.0
            else:
                pressure = mass * self._r * self._temperature / volume
            self.liquid_volume[i] = liquid
            self.ullage_volume[i] = volume
            self.ullage_mass[i] = mass
            self.ullage_pressure[i] = pressure
        return events


def _oracle_angles(plant: _Plant, flows: NetworkFlows, setpoints) -> list[float]:
    """Valve angles, in EREG_NAMES order, that satisfy the setpoints exactly
    at the current state.

    Used as a controller-error floor: with these angles the only remaining
    tracking error is the plant's own per-tick drift.
    """
    angles = [0.0] * 4
    p_sup = plant.supply_pressure
    back = flows.chamber_pressure
    for i, side in enumerate(SIDES):
        valve = plant.valves[i]
        demand = setpoints[i] * flows.q_liquid[i] / plant._rt
        p_tank = plant.ullage_pressure[i]
        fade = choked_flow_fade(p_tank / p_sup) if p_sup > 0 else 0.0
        if p_sup <= 0.0 or fade <= 0.0 or demand <= 0.0:
            theta = 0.0
        else:
            cv = demand / (valve.choked_constant * p_sup * fade)
            theta = valve.theta_zero + cv / valve.alpha
        angles[i] = clamp(theta, 0.0, FULL_TRAVEL)

        ivalve = plant.valves[2 + i]
        rho = plant._rho[i]
        s_i = setpoints[2 + i]
        q_req = 0.0
        if s_i > back:
            orifice = plant.config.injectors[side]
            q_req = orifice.cd * orifice.area * math.sqrt(2.0 * (s_i - back) / rho)
        dp_valve = p_tank - s_i - rho * q_req**2 * plant._line[i]
        if q_req <= 0.0:
            theta = 0.0
        elif dp_valve <= 0.0:
            theta = FULL_TRAVEL
        else:
            cv = q_req / math.sqrt(dp_valve / rho)
            theta = ivalve.theta_zero + cv / ivalve.alpha
        angles[2 + i] = clamp(theta, 0.0, FULL_TRAVEL)
    return angles


class RunAudit:
    """Invariant monitor of the plant's stored state, filled in by record."""

    def __init__(self):
        self.initial_gas_mass = 0.0
        self.max_gas_law_residual = 0.0
        self.max_mass_drift = 0.0  # relative; conserved while the collapse sink is off

    def record(self, plant: _Plant) -> None:
        """Fold in the stored supply and ullage gas: mass drift and p V - m R T."""
        total = plant.supply_mass + plant.ullage_mass[0] + plant.ullage_mass[1]
        if self.initial_gas_mass == 0.0:
            self.initial_gas_mass = total
        self.max_mass_drift = max(
            self.max_mass_drift, abs(total - self.initial_gas_mass) / self.initial_gas_mass
        )
        gases = [(plant.supply_pressure, plant._supply_volume, plant.supply_mass),
                 *zip(plant.ullage_pressure, plant.ullage_volume, plant.ullage_mass)]
        for p, volume, mass in gases:
            pv = p * volume
            if pv != 0.0:
                residual = abs(pv - mass * plant._r * plant._temperature) / pv
                self.max_gas_law_residual = max(self.max_gas_law_residual, residual)


class Run:
    """One run of a config, which checked itself when it was built. It ends
    at the configured duration or at an over-pressure abort (110 percent of
    a valve rating upstream of it by default), whose step emits a last frame
    that carries the abort event. Identical configs give bit-identical
    frames, however advance calls split the steps."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.n_steps, self._phys_per_secondary, self._phys_per_primary = step_grid(
            config.duration, config.dt_phys, config.dt_secondary, config.dt_primary
        )
        self.plant = _Plant(config)
        # The regulators in EREG_NAMES order, None for the oracle or a locked valve:
        # regulator j is on side j % 2, fed by the supply for j < 2, else by its tank.
        self.controllers = [
            None if config.variant == "oracle" or settings.locked_angle is not None
            else EregController("tank" if j < 2 else "injector", settings,
                                Actuator(config.actuator, config.dt_phys), config.dt_primary,
                                config.dt_secondary, config.variant)
            for j, settings in enumerate(config.controllers[name] for name in EREG_NAMES)
        ]
        self.locked = [config.controllers[name].locked_angle for name in EREG_NAMES]
        self.angles = [0.0 if angle is None else angle for angle in self.locked]
        self.rng = np.random.default_rng(config.noise_seed) if config.noise_sigma > 0.0 else None
        self.step = 0  # physics steps taken
        self.done = False
        # One checked row per frame, its events last, and the events so far.
        self.rows, self.events_active = [], []
        # What the last primary tick sampled.
        self.flows = self.setpoints = self.measured = self.measured_supply = None

    def advance(self, n_steps: int) -> None:
        """Run up to n_steps more physics steps, fewer at the end or an abort."""
        if self.done or n_steps < 1:
            return
        config, plant, rng, controllers = self.config, self.plant, self.rng, self.controllers
        cascades = [(j, c, c.actuator) for j, c in enumerate(controllers) if c is not None]
        locked, angles = self.locked, self.angles
        phys_per_secondary, phys_per_primary = self._phys_per_secondary, self._phys_per_primary
        dt = config.dt_phys
        schedule = config.schedule
        noise_sigma = config.noise_sigma
        oracle = config.variant == "oracle"
        # Without a chamber the back-pressure is ambient and warm_start a no-op.
        warm = config.chamber is not None
        # Over-pressure abort: valves must never see more than the configured
        # fraction of their rated pressure upstream.
        factor = config.abort_pressure_factor
        supply_limit = factor * min(valve.rated_pressure for valve in plant.valves[:2])
        ox_limit, fuel_limit = (factor * valve.rated_pressure for valve in plant.valves[2:])
        rows, events_active = self.rows, self.events_active
        flows, setpoints = self.flows, self.setpoints
        measured, measured_supply = self.measured, self.measured_supply
        stop = min(self.step + n_steps, self.n_steps)

        for k in range(self.step, stop):
            t = k * dt
            plant.set_angles(angles)
            primary = k % phys_per_primary == 0

            if primary:  # step 0 is one: flows, setpoints and measured are set before use
                flows = plant.snapshot()
                setpoints = setpoints_at(schedule, t)
                # Sensor sampling happens at the primary rate; optional zero-mean
                # Gaussian noise is one draw per tick, in a fixed order for
                # determinism: the supply, then the regulators.
                measured = [*plant.ullage_pressure, *flows.p_injector]
                measured_supply = plant.supply_pressure
                if rng is not None:
                    noise = rng.standard_normal(1 + len(measured)).tolist()
                    measured_supply += noise_sigma * noise[0]
                    measured = [p + noise_sigma * n for p, n in zip(measured, noise[1:])]
            elif warm:
                plant.warm_start()

            if oracle:
                if primary:
                    angles[:] = _oracle_angles(plant, flows, setpoints)
                    for j, angle in enumerate(locked):
                        if angle is not None:
                            angles[j] = angle
                    plant.set_angles(angles)
            elif k % phys_per_secondary == 0:
                for j, ctrl, _ in cascades:
                    upstream = measured_supply if j < 2 else measured[j - 2]
                    ctrl.step(measured[j], upstream, setpoints[j], t, primary)

            p_ox, p_fuel = plant.ullage_pressure
            abort = plant.supply_pressure > supply_limit or p_ox > ox_limit or p_fuel > fuel_limit
            if abort:
                events_active.append(EVENT_ABORT)
            if abort or primary:
                if not primary:  # an abort between primary ticks; the state has not moved
                    flows = plant.snapshot()
                rows.append(_frame_row(t, flows, controllers, angles, measured,
                                       measured_supply, setpoints, events_active))
            if abort:
                stop, self.done = k, True
                break

            events_active += plant.step(dt)

            for j, ctrl, actuator in cascades:
                actuator.step(ctrl.u2)
                angles[j] = actuator.valve_angle

        self.step, self.done = stop, self.done or stop == self.n_steps
        self.flows, self.setpoints = flows, setpoints
        self.measured, self.measured_supply = measured, measured_supply

    def frames(self) -> list[TelemetryFrame]:
        """One frame per primary tick so far, plus the abort's, built in one batch."""
        return _frames(self.rows)


def run_scenario(config: ScenarioConfig) -> list[TelemetryFrame]:
    """The frames of a Run of config advanced to its end or its abort."""
    run = Run(config)
    run.advance(run.n_steps)
    return run.frames()


def _frame_row(t, flows, controllers, angles, measured, measured_supply,
               setpoints, events) -> list:
    """The values of the frame at t in CSV column order, checked finite,
    then its events tuple."""
    row = [t]
    for ctrl, setpoint, pressure, angle in zip(controllers, setpoints, measured, angles):
        row += (setpoint / 1e5, pressure / 1e5, angle)
        if ctrl is not None:
            row += (ctrl.last_feedforward, ctrl.u1, ctrl.u2)
        else:
            row += (0.0, angle, 0.0)
    mdot_ox, mdot_fuel = flows.mdot_liquid
    row += (
        measured_supply / 1e5,
        mdot_ox,
        mdot_fuel,
        flows.mdot_gas[0] + flows.mdot_gas[1],
        flows.chamber_pressure / 1e5,
        flows.thrust,
        (mdot_ox / mdot_fuel) if mdot_fuel > 0.0 else 0.0,
    )
    try:
        _check_values(row)
    except ValueError as exc:
        raise EregSimError(f"non-finite telemetry at t={t}: {exc}") from exc
    row.append(tuple(events))
    return row

