"""
Replay the recorded CLI calls (``tests/golden/record_cli.py``) and compare
exit code, stdout and stderr byte for byte.
"""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record_cli import run_case  # noqa: E402

CASES = json.loads((GOLDEN / "cli_cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_matches_the_recording(case):
    code, out, err = run_case(case["argv"])
    assert (GOLDEN / "cli" / f"{case['name']}.out").read_text() == out
    assert err == case["stderr"]
    assert code == case["exit"]
