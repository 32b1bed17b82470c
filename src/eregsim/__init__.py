"""Deterministic simulator for electronically regulated pressure-fed
rocket feed systems: plant physics, cascaded regulator controllers,
scenario tooling, calibration fits and a command-line runner."""

from .control import (
    Actuator,
    ActuatorSettings,
    ControllerSettings,
    EregController,
    FeedforwardParams,
    PidController,
    PidGains,
    ff_injector,
    ff_tank,
)
from .engine import run_scenario
from .errors import (
    ConfigError,
    ControllerError,
    DegenerateFitError,
    EregSimError,
    InfeasibleThrottleError,
    ModelError,
)
from .fluids import (
    ChamberModel,
    GasTankState,
    LineModel,
    ValveModel,
    chamber_state,
    cv_of_angle,
    liquid_volumetric_flow,
)
from .scenario import (
    ScenarioConfig,
    SetpointSchedule,
    ThrottleProfile,
    load_scenario,
    paired_setpoints_for_of,
    setpoints_at,
    size_mock_injector,
)
from .telemetry import (
    TelemetryFrame,
    emit_telemetry,
    read_telemetry,
    regulation_metrics,
)

__version__ = "0.1.0"
