"""Unit conversions used at config and telemetry boundaries.

Everything inside the package is strict SI (Pa, kg, m3, K, s, degrees for
valve angles). Bar appears only in scenario files and telemetry output.
"""

BAR = 1.0e5  # Pa


def bar_to_pa(p_bar: float) -> float:
    return p_bar * BAR
