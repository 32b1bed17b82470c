"""The multi-key arms of tests/probe_scenarios.py: what they draw, and a
fixed sample of their inputs, each of which must run or be rejected."""

import random

import pytest

from tests import probe_scenarios

MULTI_KEY = probe_scenarios.multi_key_inputs()
MULTI_REPLACE = probe_scenarios.multi_replace_inputs()
SAMPLE_SIZE = 12


def test_multi_key_draws_are_seeded():
    assert probe_scenarios.multi_key_inputs() == MULTI_KEY
    assert probe_scenarios.multi_replace_inputs() == MULTI_REPLACE
    assert len(MULTI_KEY) == len(MULTI_REPLACE) == probe_scenarios.MULTI_KEY_INPUTS


def test_each_draw_scales_2_to_6_distinct_keys():
    lo, hi = probe_scenarios.MULTI_KEYS
    for stem, changes in MULTI_KEY:
        paths = [path for path, _ in changes]
        assert lo <= len(paths) <= hi and len(set(paths)) == len(paths)
        shipped = probe_scenarios.shipped(stem)
        for path, value in changes:
            assert path in set(probe_scenarios.numeric_paths(shipped))
            original = probe_scenarios.value_at(shipped, path)
            assert any(value == original * scale for scale in probe_scenarios.SCALES)
    for (changes,) in MULTI_REPLACE:
        fields = [field for field, _ in changes]
        assert lo <= len(fields) <= hi and len(set(fields)) == len(fields)
        assert set(fields) <= set(probe_scenarios.REPLACED)


@pytest.mark.parametrize("stem, changes", random.Random(0).sample(MULTI_KEY, SAMPLE_SIZE))
def test_multi_key_input_runs_or_is_rejected_at_load(stem, changes):
    assert probe_scenarios.probe_many(stem, changes) in probe_scenarios.OUTCOMES


@pytest.mark.parametrize("changes", [c for (c,) in random.Random(0).sample(MULTI_REPLACE,
                                                                           SAMPLE_SIZE)])
def test_multi_key_input_runs_or_is_rejected_at_replace(changes):
    assert probe_scenarios.probe_replace_many(changes) in probe_scenarios.REPLACE_OUTCOMES
