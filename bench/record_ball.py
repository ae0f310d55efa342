"""
Record the expected counts for the ``ball`` workload.

For every (model, radius) stratum of ``workloads.BALL_STRATA`` this draws
a fixed pool of small integer characters and stores the vertex,
nonnegative and reachable counts that ``explore_ball`` reports for each.
The benchmark then checks sweeps against this table, so a change to the
models layer that alters a count shows up as a failed op.

Run from the repository root at the commit whose counts are the
reference; it rewrites ``bench/ball_expected.json``:

    python3 bench/record_ball.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sigmabraid import characters, criterion  # noqa: E402
from sigmabraid.models import ModelId  # noqa: E402

from workloads import BALL_BUDGET, BALL_STRATA, BALL_TABLE  # noqa: E402

POOL_SIZE = 20


def _pool(rng: random.Random, model: ModelId) -> list[dict[str, int]]:
    labels = characters.abelianization(model).free_labels
    pool: list[dict[str, int]] = []
    while len(pool) < POOL_SIZE:
        coords = {label: rng.randint(-2, 2) for label in labels}
        if any(coords.values()) and coords not in pool:
            pool.append(coords)
    return pool


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    rng = random.Random("ball-pool")
    sweeps = []
    for model_name, radius, _ in BALL_STRATA:
        model = ModelId(model_name)
        for coords in _pool(rng, model):
            chi = characters.character(model, coords)
            r = criterion.explore_ball(model, chi, radius=radius, budget=BALL_BUDGET)
            sweeps.append({"model": model_name, "radius": radius, "coords": coords,
                           "vertices": r.vertex_count, "nonnegative": r.nonnegative_count,
                           "reachable": r.reachable_count})
    with open(BALL_TABLE, "w") as fh:
        json.dump({"recorded_at": _commit(), "budget": BALL_BUDGET, "sweeps": sweeps}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(sweeps)} sweeps to {BALL_TABLE}")


if __name__ == "__main__":
    main()
