"""Fixtures for the observability tests: every test starts and ends with
both mode bits off, an empty tracer and an empty process-wide registry."""

import pytest

from repro.obs import core, runtime


@pytest.fixture(autouse=True)
def clean_obs():
    core.disable()
    core.reset()
    runtime.disable()
    runtime.reset()
    yield
    core.disable()
    core.reset()
    runtime.disable()
    runtime.reset()
