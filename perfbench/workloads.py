"""Workload definitions and seeded input generation.

Every input the program sees is generated here from the workload seed and
written to a file: a DEM with seeded rates, a program text, or a list of
sampler seeds.  The seed reaches the program through nothing else.  This
module uses the standard library only, so the driving process never
imports the code under test.
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

# The three-bit repetition code from the README quick start.
REPETITION_PROGRAM = """\
R 0
R 1
R 2
R 3
R 4
XERR(0.01) 0
XERR(0.01) 1
XERR(0.01) 2
CX 0 3
CX 1 3
CX 1 4
CX 2 4
M s1 <- 3
M s2 <- 4
M out <- 0
DETECTOR s1
DETECTOR s2
OBSERVABLE out
"""

DEMO_DEM = Path("src/qecbound/data/scaling_demo.dem")

# One unit of work per workload.  Units are repeated with identical inputs
# for the whole run, so every count they produce must repeat exactly.
# `target` is the ratio upper/lower whose first crossing is timed; each is
# placed in the widest gap between two checkpoints near the middle of the
# unit, so that seeded rates never move the crossing to another checkpoint.
WORKLOADS = {
    "accuracy-greedy39": {
        "why": "per-shot hot path (enumerate, syndrome, greedy decode, "
               "accumulate) with cheap checkpoints",
        "mode": "accuracy",
        "decoder": "greedy",
        "strategy": "hamming",
        "max_shots": 1 << 15,
        "target": 1.3,  # ratio 1.52-1.57 at 8192 shots, 1.15-1.17 at 16384
    },
    "robustness-greedy39": {
        "why": "same enumeration, but the box optimizer at each checkpoint "
               "dominates",
        "mode": "robustness",
        "decoder": "greedy",
        "strategy": "hamming",
        "max_shots": 1 << 12,
        "box_scale": (0.9, 1.1),
        "target": 3.1,  # ratio 3.35-3.51 at 2048 shots, 2.75-2.85 at 4096
    },
    "hybrid-rep3": {
        "why": "rejection sampling of the unexplored space dominates; only "
               "4 distinct syndromes",
        "mode": "accuracy",
        "decoder": "ml",
        "strategy": "hamming",
        "max_shots": 4,
        "sample_count": 200,
        # 8 sampler seeds per unit: one seed's time varies by about 10%.
        "seed_block": 8,
        "target": 1.5,  # met only by the probabilistic record at 4 shots
    },
    "exec-ml20": {
        "why": "external ML decoder over the pipe, ML table build in set-up, "
               "local-flip detours into VisitedSet extras",
        "mode": "accuracy",
        "decoder": "exec-ml",
        "strategy": "local-flip",
        "max_shots": 1 << 15,
        # Six chains of 3 channels.  Odd chains keep every ML decision
        # independent of the seeded rates; with drawn or even lengths the
        # logical-error set, and with it the detours, changed by seed.
        "chains": [3, 3, 3, 3, 3, 3],
        "target": 1.0002,  # ratio-1 about 5e-3 at 8192 shots, 1e-5 at 16384
    },
}


def seeded_rates(rng: random.Random, n: int) -> list[float]:
    """Per-channel rates within a factor e^0.2 of 1e-2."""
    return [float(f"{0.01 * math.exp(rng.uniform(-0.2, 0.2)):.6g}") for _ in range(n)]


def reseed_dem(text: str, rates: list[float]) -> str:
    """Replace the rate of every `error(...)` line, in order."""
    it = iter(rates)
    out = re.sub(r"^error\([^)]*\)", lambda _m: f"error({next(it)!r})", text,
                 flags=re.MULTILINE)
    if next(it, None) is not None:
        raise ValueError("more rates than channels")
    return out


def block_dem(rng: random.Random, sizes) -> str:
    """Independent repetition chains sharing observable L0, seeded rates.

    A chain of k channels reads `D_a L0`, `D_a D_b`, ..., `D_z`: its k-1
    detectors are its own, and the XOR of all its channels flips L0 alone.
    """
    lines = []
    det = 0
    for k in sizes:
        ds = [f"D{det + j}" for j in range(k - 1)]
        rows = [[ds[0], "L0"]] + [[ds[j], ds[j + 1]] for j in range(k - 2)] + [[ds[-1]]]
        det += k - 1
        for row, p in zip(rows, seeded_rates(rng, k)):
            lines.append(f"error({p!r}) " + " ".join(row))
    return f"dem {det} 1\n" + "\n".join(lines) + "\n"


def make_inputs(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the seeded inputs for one workload; return the child's spec."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    spec = {k: v for k, v in wl.items() if k != "why"}
    spec["workload"] = name
    spec["seed"] = seed
    if name in ("accuracy-greedy39", "robustness-greedy39"):
        text = (root / DEMO_DEM).read_text()
        n = sum(1 for ln in text.splitlines() if ln.startswith("error("))
        path = workdir / f"{name}_seed{seed}.dem"
        path.write_text(reseed_dem(text, seeded_rates(rng, n)))
    elif name == "hybrid-rep3":
        path = workdir / f"{name}_seed{seed}.qec"
        path.write_text(REPETITION_PROGRAM)
        spec["run_seeds"] = [rng.randrange(1 << 31) for _ in range(wl["seed_block"])]
    else:
        path = workdir / f"{name}_seed{seed}.dem"
        path.write_text(block_dem(rng, wl["chains"]))
    spec["input"] = str(path.resolve())
    return spec
