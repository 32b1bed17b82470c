"""Unit conversions used at config and telemetry boundaries.

Everything inside the package is strict SI (Pa, kg, m3, K, s, degrees for
valve angles). Bar appears only in scenario files and telemetry output.
"""

BAR = 1.0e5  # Pa

# Catalog valve coefficients are usually quoted in US gpm / sqrt(psi / SG).
# The SI flow factor used internally is defined by Q = Cv * sqrt(dp / rho)
# with Q in m3/s, dp in Pa and rho in kg/m3, which makes Cv an effective
# area in m2.  One US Cv unit converts as
#   6.30902e-5 m3/s per gpm * sqrt(1000 kg/m3 / 6894.757 Pa) = 2.4027e-5 m2
CV_US_GPM_TO_SI = 2.4027e-5


def bar_to_pa(p_bar: float) -> float:
    return p_bar * BAR
