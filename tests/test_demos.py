"""Each quick demo's stdout is frozen by its SHA-256.

``random_host.py`` takes several seconds, so only the CI workflow runs
it; its "Demos" step checks that demo's stdout against its SHA-256.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from test_cli import _child_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

STDOUT_SHA256 = {
    "lift_spectrum.py": "f59d73b891176094ee4ad7e695ff957a96a2ae7c8623eda3e15ad4193fb715e7",
    "building_game.py": "09075555427fa32d94030fe3158b53f191fe5e013d86438694fc731d7232a875",
    "blowup_containment.py": "d698ee2f3977e21166657c8631ccadbbf4d002d5bb764b374bb5c46f7cce79da",
    "ideal_towers.py": "a05af6a3d98243420e4c42c4bb17ed0432c26fd0a5dff76b8606649b5c9d8253",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_frozen(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
