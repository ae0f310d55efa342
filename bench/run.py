"""
The sigmabraid benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` next
to this directory.  The seeded input set of the workload (see
``workloads.py``) is built, every op kind is run once to warm up, and
then rounds, each one whole pass over the input set, run back to back,
each op starting when the previous one has returned, until ``--seconds``
have gone by.  Every answer is checked against the answer fixed when its
input was built.

``--trace 0`` reports the end-to-end metrics, each the median over
rounds, with times scaled to a reference host speed (``calibrate.py``).
``setup_s`` is the median over several fresh interpreters of importing
``sigmabraid`` and filling its lazy caches (``setup_probe.py``).

``--trace 1`` runs one pass over the input set with ``tracing.Tracer``
installed, between two passes without it, and reports the per-layer
metrics; the spans go to ``bench/out/spans-<workload>.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 9
HARD_LIMIT_S = 120.0
CALIBRATE_EVERY_S = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "classify", "oracle", "ball"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import sigmabraid from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sigmabraid", "__init__.py")):
        raise SystemExit(f"error: no sigmabraid package under {SRC}")
    sys.path.insert(0, SRC)
    import sigmabraid

    if os.path.dirname(os.path.dirname(os.path.abspath(sigmabraid.__file__))) != SRC:
        raise SystemExit(f"error: sigmabraid was imported from {sigmabraid.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Measuring

def _warm(ops) -> None:
    """Fill the lazy caches and run one op of every kind, untimed."""
    from sigmabraid import models

    for model in models.ModelId:
        models.dictionary(model)
        models.equation_bank(model)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def _failure(op, answer) -> str:
    return f"{op.kind} {op.model} n={op.n}: got {answer!r}, expected {op.expect!r}"


def _run_op(op, tracer=None, op_id=0):
    """Run one op; returns (latency s, answer, ok)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        answer = op.run()
    except Exception as exc:  # an unexpected error is a failed op, not a crash
        answer = f"{type(exc).__name__}: {exc}"
    took = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    return took, answer, op.check(answer)


def _closed_loop(ops, seconds: float):
    """Rounds, each one whole pass over ``ops``, until ``seconds`` have
    elapsed.  Returns per round the op latencies and the calibration
    kernel times taken between ops, plus the failures."""
    rounds: list[tuple[list[float], list[float]]] = []
    failures: list[str] = []
    began = perf_counter()
    while not rounds or perf_counter() - began < seconds:
        latencies: list[float] = []
        kernel = [calibrate.kernel_s()]
        rounds.append((latencies, kernel))
        next_kernel = perf_counter() + CALIBRATE_EVERY_S
        for op in ops:
            took, answer, ok = _run_op(op)
            latencies.append(took)
            if not ok:
                failures.append(_failure(op, answer))
            now = perf_counter()
            if now - began > HARD_LIMIT_S:
                return rounds, failures
            if now >= next_kernel:
                kernel.append(calibrate.kernel_s())
                next_kernel = perf_counter() + CALIBRATE_EVERY_S
    return rounds, failures


def _setup_samples() -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up seconds, one per fresh interpreter."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    raw, scaled = [], []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60)
        if k:  # the first sample only warms the file cache
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            raw.append(doc["setup_s"])
            scaled.append(doc["setup_s"] * calibrate.scale(doc["kernel_s"]))
    return raw, scaled


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _round_stats(latencies: list[float], factor: float = 1.0) -> tuple[float, float, float]:
    """(ops per second, p50 ms, p90 ms) of one round, times scaled by ``factor``."""
    ms = sorted(t * 1e3 * factor for t in latencies)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return len(ms) / (sum(ms) / 1e3), statistics.median(ms), p90


def _medians(stats: list[tuple[float, float, float]]) -> tuple[float, float, float]:
    return tuple(statistics.median(column) for column in zip(*stats))


def end_to_end(ops, seconds: float):
    """Each time is calibrated to the reference host speed (calibrate.py),
    and each metric is the median over rounds."""
    rounds, failures = _closed_loop(ops, seconds)
    stats = [_round_stats(lat, calibrate.scale(kernel)) for lat, kernel in rounds]
    rate, p50, p90 = _medians(stats)
    raw_rate, raw_p50, raw_p90 = _medians([_round_stats(lat) for lat, _ in rounds])
    setup_raw, setup = _setup_samples()
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(rate, "ops/s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    info = {"rounds": len(rounds), "samples_per_round": [len(lat) for lat, _ in rounds],
            "beyond_p90_per_round": [sum(1 for t in lat if t * 1e3 * calibrate.scale(kernel) > p90r)
                                     for (lat, kernel), (_, _, p90r) in zip(rounds, stats)],
            "host_scale_per_round": [calibrate.scale(kernel) for _, kernel in rounds],
            "raw": {"setup_s": statistics.median(setup_raw), "ops_per_s": raw_rate,
                    "op_p50_ms": raw_p50, "op_p90_ms": raw_p90},
            "setup_samples_raw": setup_raw}
    return metrics, failures, sum(len(lat) for lat, _ in rounds), info


# ---------------------------------------------------------------------------
# Traced run

def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of y on x; 0 with fewer than two distinct x."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _grouped_medians(values: dict[int, list[float]]) -> list[tuple[int, float]]:
    return [(key, statistics.median(vs)) for key, vs in sorted(values.items()) if vs]


def _time_exponent(tracer, ops, label: str, kinds: set[str]) -> float:
    """log-log slope of the median span time of ``label`` against n."""
    durations = tracer.op_durations(label)
    by_n: dict[int, list[float]] = {}
    for op_id, op in enumerate(ops):
        if op.kind in kinds and op_id in durations:
            by_n.setdefault(op.n, []).append(durations[op_id])
    return _slope([(math.log(n), math.log(t)) for n, t in _grouped_medians(by_n) if n > 0 and t > 0])


def _fiber_growth(tracer, ops, model: str) -> float:
    """Slope of log2(1 + fiber length) against word length, per model."""
    by_len: dict[int, list[float]] = {}
    for op_id, op in enumerate(ops):
        peak = tracer.op_stats.get(op_id, {}).get("fiber_peak")
        if op.kind == "words" and op.model == model and peak is not None:
            by_len.setdefault(op.n, []).append(math.log2(1 + peak))
    return _slope(_grouped_medians(by_len))


def per_layer(tracer, ops, untraced_s: float, traced_s: float) -> dict:
    tr = tracer
    counts = tr.counts
    op_spans = [(end - start, op) for name, start, end, _, op in tr.spans if name == "op"]
    covered = sum(tr.op_stats[op]["child_s"] for _, op in op_spans)
    total_op = sum(d for d, _ in op_spans)
    step_calls = tr.calls("models.step")
    rows = [
        ("words.reduce.calls", tr.calls("words.reduce"), "count"),
        ("words.reduce.self_s", tr.self_s("words.reduce"), "s"),
        ("words.reduce.letters", counts.get("words.reduce.letters", 0), "count"),
        ("words.parse.calls", tr.calls("words.parse"), "count"),
        ("words.parse.self_s", tr.self_s("words.parse"), "s"),
        ("presentations.instantiate.calls", tr.calls("presentations.instantiate"), "count"),
        ("presentations.instantiate.self_s", tr.self_s("presentations.instantiate"), "s"),
        ("presentations.relations", counts.get("presentations.relations", 0), "count"),
        ("models.normalize.calls", tr.calls("models.normalize"), "count"),
        ("models.normalize.self_s", tr.self_s("models.normalize"), "s"),
        ("models.normalize.letters", counts.get("models.normalize.letters", 0), "count"),
        ("models.fiber_len_peak", counts.get("models.fiber_len_peak", 0), "letters"),
        ("models.fiber_len_sum", counts.get("models.fiber_len_sum", 0), "letters"),
        ("models.fiber_growth.G3T", _fiber_growth(tr, ops, "G3T"), "log2/letter"),
        ("models.fiber_growth.G4T", _fiber_growth(tr, ops, "G4T"), "log2/letter"),
        ("models.translate.calls", tr.calls("models.translate"), "count"),
        ("models.translate.self_s", tr.self_s("models.translate"), "s"),
        ("models.step.calls", step_calls, "count"),
        ("models.step.self_s", tr.self_s("models.step"), "s"),
        ("characters.evaluate.calls", tr.calls("characters.evaluate"), "count"),
        ("characters.evaluate.self_s", tr.self_s("characters.evaluate"), "s"),
        ("characters.nu.calls", tr.calls("characters.nu"), "count"),
        ("characters.nu.self_s", tr.self_s("characters.nu"), "s"),
        ("characters.abelianize.calls", tr.calls("characters.abelianize"), "count"),
        ("characters.abelianize.self_s", tr.self_s("characters.abelianize"), "s"),
        ("characters.sphere_point.self_s", tr.self_s("characters.sphere_point"), "s"),
        ("sigma.decide.calls", tr.calls("sigma.decide"), "count"),
        ("sigma.decide.self_s", tr.self_s("sigma.decide"), "s"),
        ("sigma.decide.S2.max_ms", counts.get("sigma.decide.S2.max_ms", 0.0), "ms"),
        ("sigma.decide.S2.n_exp", _time_exponent(tr, ops, "sigma.decide", {"S2-circle"}), "exponent"),
        ("sigma.insigma_uncertified", counts.get("sigma.insigma_uncertified", 0), "count"),
        ("criterion.verify.calls", tr.calls("criterion.verify"), "count"),
        ("criterion.verify.self_s", tr.self_s("criterion.verify"), "s"),
        ("criterion.verify.n_exp",
         _time_exponent(tr, ops, "criterion.verify", {"braid-top", "braid-low"}), "exponent"),
        ("criterion.gen.self_s", tr.self_s("criterion.gen"), "s"),
        ("criterion.endpoints_unchecked", counts.get("criterion.endpoints_unchecked", 0), "count"),
        ("criterion.ball.calls", tr.calls("criterion.ball"), "count"),
        ("criterion.ball.self_s", tr.self_s("criterion.ball"), "s"),
        ("criterion.ball.vertices", counts.get("criterion.ball.vertices", 0), "count"),
        ("criterion.ball.new_per_step",
         counts.get("criterion.ball.vertices", 0) / step_calls if step_calls else 0.0, "count/call"),
        ("criterion.ball.truncated", counts.get("criterion.ball.truncated", 0), "count"),
        ("cli.main.calls", tr.calls("cli.main"), "count"),
        ("cli.main.self_s", tr.self_s("cli.main"), "s"),
        ("cli.classify.self_s", tr.self_s("cli.classify"), "s"),
        ("cli.verify-cert.self_s", tr.self_s("cli.verify-cert"), "s"),
        ("cli.verify-relations.self_s", tr.self_s("cli.verify-relations"), "s"),
        ("trace.overhead", traced_s / untraced_s, "ratio"),
        ("trace.unattributed_frac", (total_op - covered) / total_op if total_op else 0.0, "ratio"),
    ]
    return {name: _metric(value, unit) for name, value, unit in rows}


def _untraced_pass(ops, failures: list[str]):
    latencies, answers = [], []
    for op in ops:
        took, answer, ok = _run_op(op)
        latencies.append(took)
        answers.append(answer)
        if not ok:
            failures.append(_failure(op, answer))
    return sum(latencies), answers


def traced(ops, workload: str):
    """One pass without the tracer, one with it, one without again; the
    overhead compares the traced pass with the mean of the other two."""
    import tracing

    failures: list[str] = []
    before_s, answers = _untraced_pass(ops, failures)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = [_run_op(op, tracer, op_id) for op_id, op in enumerate(ops)]
    finally:
        tracer.remove()
    after_s, _ = _untraced_pass(ops, failures)
    for op, (_, answer, _), before in zip(ops, seen, answers):
        if answer != before:
            failures.append(f"{op.kind} {op.model} n={op.n}: traced answer {answer!r} "
                            f"differs from untraced {before!r}")
    traced_s = sum(took for took, _, _ in seen)
    metrics = per_layer(tracer, ops, (before_s + after_s) / 2, traced_s)
    layer_self = tracer.layer_self_s()
    busy = sum(layer_self.values())
    info = {"layer_self_s": layer_self,
            "layer_share": {k: (v / busy if busy else 0.0) for k, v in layer_self.items()},
            "dominant_layer": max(layer_self, key=layer_self.get),
            "spans": len(tracer.spans)}
    _write_spans(tracer, ops, workload)
    return metrics, failures, 3 * len(ops), info


def _write_spans(tracer, ops, workload: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["label", "start", "end", "parent", "op"],
                   "ops": [[op.kind, op.model, op.n] for op in ops],
                   "labels": {label: {"calls": c, "total_s": t, "self_s": s}
                              for label, (c, t, s) in sorted(tracer.agg.items()) if c},
                   "spans": tracer.spans}, fh)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    _warm(ops)
    if args.trace:
        metrics, failures, attempted, info = traced(ops, args.workload)
    else:
        metrics, failures, attempted, info = end_to_end(ops, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "ops_in_set": len(ops),
            "fail_frac": len(failures) / attempted, **info}
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
