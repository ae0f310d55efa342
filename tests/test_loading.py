"""
What a fresh interpreter loads, and the CLI run as its own process.

The package resolves its exported names on first use and the CLI loads a
command's modules when the command runs, so these tests start a new
interpreter for each check: an in-process test sees whatever earlier tests
already imported, and cannot catch a handler that forgot its import.
Bytecode caching is off in the child, as on a fresh checkout.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _fresh(code: str, *flags: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> set[str]:
    out = _fresh(f"import sys\n{statement}\n"
                 "print(' '.join(m for m in sys.modules if m.startswith('sigmabraid')))")
    return set(out.split())


def test_importing_models_loads_only_words():
    assert _loaded_after("import sigmabraid.models") == {
        "sigmabraid", "sigmabraid.models", "sigmabraid.words"}


def test_importing_models_loads_neither_random_nor_resources():
    # without site, so no startup hook has loaded them already
    out = _fresh("import sys, sigmabraid.models\n"
                 "print(sorted({'random', 'importlib.resources'} & set(sys.modules)))", "-S")
    assert out == "[]\n"


def test_importing_the_cli_loads_no_command_module():
    loaded = _loaded_after("import sigmabraid.cli")
    assert "sigmabraid.cli" in loaded
    assert loaded.isdisjoint({"sigmabraid.criterion", "sigmabraid.sigma",
                              "sigmabraid.presentations", "sigmabraid.checks"})


def test_exported_names_are_their_modules_objects():
    out = _fresh("""
import importlib, json, sys
import sigmabraid
loaded = sorted(m for m in sys.modules if m.startswith('sigmabraid.'))
wrong = [name for name in sigmabraid.__all__
         if getattr(sigmabraid, name) is not getattr(
             importlib.import_module(getattr(sigmabraid, name).__module__), name)]
try:
    sigmabraid.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "wrong": wrong, "unknown": unknown,
                  "all": sigmabraid.__all__, "dir": dir(sigmabraid)}))
""")
    doc = json.loads(out)
    assert doc["loaded"] == []  # importing the package loads none of its modules
    assert doc["wrong"] == []
    assert doc["unknown"] == "module 'sigmabraid' has no attribute 'no_such_name'"
    assert {"decide_sigma", "normalize", "CertificateCase", "Word"} <= set(doc["all"])
    assert set(doc["all"]) <= set(doc["dir"])


def test_certificate_case_is_one_object():
    from sigmabraid import criterion, models

    assert criterion.CertificateCase is models.CertificateCase


# one recorded case per subcommand (tests/golden/record_cli.py)
_REPLAYED = ("classify-S2-p4-circle", "enumerate-K", "act-T", "verify-cert-model",
             "gen-cert-g4t-b", "ball-json", "verify-relations", "r-infinity-perm",
             "abelianize-P-K")
_CASES = {c["name"]: c for c in json.loads((GOLDEN / "cli_cases.json").read_text())}


def test_the_replay_covers_every_subcommand():
    from sigmabraid import cli

    handlers = {name[len("_cmd_"):].replace("_", "-") for name in vars(cli)
                if name.startswith("_cmd_")}
    assert sorted(_CASES[name]["argv"][0] for name in _REPLAYED) == sorted(handlers)


@pytest.mark.parametrize("name", _REPLAYED)
def test_a_fresh_process_matches_the_recording(name):
    case = _CASES[name]
    proc = subprocess.run([sys.executable, "-m", "sigmabraid.cli", *case["argv"]],
                          env=_env(), capture_output=True, timeout=120)
    assert proc.stdout == (GOLDEN / "cli" / f"{name}.out").read_bytes()
    assert proc.stderr.decode() == case["stderr"]
    assert proc.returncode == case["exit"]
