"""Telemetry must stay bit-identical to the recorded golden runs.

See tests/record_golden.py for the cases and how to re-record them.
"""

import numpy as np
import pytest

from tests.record_golden import (
    GOLDEN_PATH,
    NOISE_PATH,
    RECORDINGS,
    case_names,
    noise_case_names,
    run_case,
)


@pytest.mark.parametrize("which", RECORDINGS)
def test_file_holds_exactly_the_recorded_cases(which):
    """No case on file that no test reads, and every case with its events."""
    path, names, _ = RECORDINGS[which]
    with np.load(path) as data:
        stored = set(data.files)
    assert stored == {key for name in names() for key in (name, name + ".events")}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", case_names())
def test_telemetry_bit_identical(golden, name):
    fields, onsets = run_case(name)
    assert onsets == list(golden[name + ".events"])
    ref = golden[name]
    assert fields.shape == ref.shape
    # Compare the bit patterns so that even a sign-of-zero change shows.
    np.testing.assert_array_equal(fields.view(np.int64), ref.view(np.int64))


@pytest.fixture(scope="module")
def golden_noise():
    with np.load(NOISE_PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", noise_case_names())
def test_noisy_telemetry_bit_identical(golden_noise, golden, name):
    """Sensor noise is drawn in a fixed order: the supply, then EREG_NAMES."""
    fields, onsets = run_case(name, noisy=True)
    assert onsets == list(golden_noise[name + ".events"])
    ref = golden_noise[name]
    assert fields.shape == ref.shape
    assert not np.array_equal(ref, golden[name]), "the noisy case must differ from the clean one"
    np.testing.assert_array_equal(fields.view(np.int64), ref.view(np.int64))
