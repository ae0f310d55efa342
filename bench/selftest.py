"""
Self-tests of the benchmark itself (not of the library).

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

- the same seed builds the same inputs, another seed other inputs;
- the answer checks flag a wrong verdict and a corrupted certificate;
- traced and untraced runs give identical answers, and the tracer puts
  every original function back;
- without ``src/`` the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from sigmabraid import characters, criterion, sigma  # noqa: E402
from sigmabraid.words import sym_b  # noqa: E402


def _fingerprint(ops):
    return [(op.kind, op.model, op.n, repr(op.expect), repr(op.run.__defaults__)) for op in ops]


def _sample(ops, per_kind: int = 2):
    """A few ops of every kind, in input order."""
    seen: dict[str, int] = {}
    out = []
    for op in ops:
        if seen.get(op.kind, 0) < per_kind:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            out.append(op)
    return out


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = _fingerprint(workloads.build(name, 7))
        assert first == _fingerprint(workloads.build(name, 7)), name
        assert first != _fingerprint(workloads.build(name, 8)), name


def test_checker_flags_wrong_verdict():
    ops = [op for op in workloads.build("classify", 3) if op.kind == "S2-circle"][:3]
    original = sigma.decide_sigma
    sigma.decide_sigma = lambda group, pt=None: sigma.SigmaVerdict(sigma.IN_SIGMA1, None, "wrong")
    try:
        results = [run._run_op(op) for op in ops]
    finally:
        sigma.decide_sigma = original
    assert ops and not any(ok for _, _, ok in results)
    assert all(run._run_op(op)[2] for op in ops)


def test_checker_flags_corrupted_certificate():
    ops = [op for op in workloads.build("certify", 3)
           if op.kind == "braid-top" and op.model in ("P_3(T)", "P_2(K)")]
    original = criterion.generate_braid_certificate

    def corrupted(group, chi):
        cert = original(group, chi)
        return workloads._corrupt(cert, 0, sym_b(1))

    criterion.generate_braid_certificate = corrupted
    try:
        results = [run._run_op(op) for op in ops]
    finally:
        criterion.generate_braid_certificate = original
    assert ops and not any(ok for _, _, ok in results)
    assert all("CertificateError" in str(answer) for _, answer, _ in results)
    assert all(run._run_op(op)[2] for op in ops)


def test_negative_controls_pass_as_expected():
    ops = [op for op in workloads.build("certify", 4) if op.kind.endswith("-control")]
    ops += [op for op in workloads.build("ball", 4) if op.kind.endswith("-control")]
    assert {op.kind for op in ops} == {"margin-control", "corrupt-control", "unreached-control",
                                       "connected-control", "budget-control"}
    assert all(run._run_op(op)[2] for op in ops)


def test_traced_matches_untraced():
    originals = (characters.evaluate, criterion.evaluate, sigma.decide_sigma)
    for name in workloads.WORKLOADS:
        ops = _sample(workloads.build(name, 5))
        if name == "oracle":
            ops = [op for op in ops if op.kind != "cli-verify-relations"]
        metrics, failures, attempted, info = run.traced(ops, name)
        assert not failures, failures
        assert attempted == 3 * len(ops)
        assert metrics["trace.overhead"]["value"] > 0
    assert (characters.evaluate, criterion.evaluate, sigma.decide_sigma) == originals


def test_refuses_without_library():
    scratch = os.path.join(HERE, "out", "bare")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ball", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=scratch, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}")
    print(f"{len(tests)} passed")
