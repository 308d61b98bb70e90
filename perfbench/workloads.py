"""Seeded inputs for the benchmark workloads.

Every input is generated from the workload seed and written as a config
file into a scratch directory; the program only ever sees those files,
passed through ``freedim.cli.main``.  A workload is a warm-up list of
operations plus an endless sequence of passes; the timed loop always runs
whole passes, so per-operation means and medians do not depend on where a
run happened to stop inside a pass.

A run makes ``round(seconds / pass_s)`` passes (at least one), where
``pass_s`` is the cost of one pass measured on a 2-vCPU host with OpenBLAS
at 2 threads.  The number of passes, and so every operation a run attempts,
depends only on ``--seconds``, not on how fast the host happens to be: two
runs with the same seed attempt the same operations and fail the same ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Reports of the shipped configs and of S4 are recorded for these op seeds
# (see goldens.json), so each op draws its --seed from this range.
GOLDEN_SEEDS = 16

# The nine configs shipped with the program, in a fixed order.  The list is
# fixed here rather than globbed so that adding a config to the repository
# does not silently change the workload.
SHIPPED = (
    "counterexample.json",
    "cutoff_sweep.json",
    "delta_direct_sum.json",
    "delta_full_2x2.json",
    "delta_two_point.json",
    "dual_fisher.json",
    "dual_inner.json",
    "group_finite_s3.json",
    "group_free_kernel.json",
)

# Block shapes of the dual ladder: D = sum n_i^2 = 36, 41, 49, 64.
LADDER_SHAPES = ((6,), (4, 5), (7,), (8,))
WARMUP_SHAPE = (3,)


@dataclass(frozen=True)
class Op:
    """One call ``cli.main([scenario, "--config", config, "--seed", seed, ...])``.

    ``check`` names the oracle that judges the report: ``group`` (regular
    representation of a symmetric group), ``inner``, ``fisher`` or
    ``shipped``; ``label`` identifies the input in results and goldens.
    """

    label: str
    scenario: str
    config: str
    seed: int
    check: str


@dataclass
class Workload:
    warmup: list[Op]
    next_pass: Callable[[], list[Op]]
    pass_s: float             # seconds per pass on the reference host

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


def _pairs(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def _random_algebra(rng: np.random.Generator, shape: tuple[int, ...]) -> dict:
    """A generic self-adjoint pair on the given blocks, with random weights.

    Independent Hermitian blocks generate the full direct sum with
    probability one; the weights are positive and sum to 1.
    """
    N = sum(shape)
    gens = []
    for _ in range(2):
        g = np.zeros((N, N), dtype=complex)
        start = 0
        for n in shape:
            g[start:start + n, start:start + n] = _hermitian(rng, n)
            start += n
        gens.append(_pairs(g))
    w = rng.uniform(0.5, 1.5, len(shape))
    w = w / w.sum()
    return {"blocks": list(shape), "weights": [float(x) for x in w],
            "generators": gens}


def _dual_pair(rng, shape, tmp: str, seed: int, tag: str) -> list[Op]:
    """One ``inner`` config (random B) and one ``fisher`` config on a shape."""
    algebra = _random_algebra(rng, shape)
    D = sum(n * n for n in shape)
    B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    label = tag + "x".join(str(n) for n in shape)
    ops = []
    for kind, dual in (("inner", {"type": "inner", "matrix": _pairs(B)}),
                       ("fisher", {"type": "fisher"})):
        path = _write(tmp, f"{label}_{kind}.json", {
            "scenario": "dual_system", "algebra": algebra,
            "parameters": {"dual": dual},
        })
        ops.append(Op(f"{label}/{kind}", "dual_system", path, seed, kind))
    return ops


def _write(tmp: str, name: str, config: dict) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def build(name: str, seed: int, root: str, tmp: str) -> Workload:
    """Generate the inputs of workload `name` from `seed` into `tmp`."""
    rng = np.random.default_rng(seed)

    def op_seed() -> int:
        return int(rng.integers(GOLDEN_SEEDS))

    if name == "group_s4":
        s3 = _write(tmp, "s3.json", {"scenario": "group_finite",
                                     "group": {"kind": "symmetric", "n": 3}})
        s4 = _write(tmp, "s4.json", {"scenario": "group_finite",
                                     "group": {"kind": "symmetric", "n": 4}})
        # S3 exercises the same code as S4 at a hundredth of the cost, so
        # set-up can be repeated to take its median.
        return Workload([Op("S3", "group_finite", s3, op_seed(), "group")],
                        lambda: [Op("S4", "group_finite", s4, op_seed(), "group")],
                        17.0)

    if name == "dual_ladder":
        warm_rng = np.random.default_rng([seed, 1])
        warmup = _dual_pair(warm_rng, WARMUP_SHAPE, tmp, seed, "warm")
        ladder = [op for shape in LADDER_SHAPES
                  for op in _dual_pair(rng, shape, tmp, seed, "")]
        return Workload(warmup, lambda: list(ladder), 7.5)

    if name == "shipped_configs":
        configs = []
        for fname in SHIPPED:
            path = os.path.join(root, "configs", fname)
            with open(path) as fh:
                scenario = json.load(fh)["scenario"]
            configs.append((fname[:-len(".json")], scenario, path))

        def shipped_pass() -> list[Op]:
            return [Op(label, scenario, path, op_seed(), "shipped")
                    for label, scenario, path in configs]

        return Workload(shipped_pass(), shipped_pass, 0.055)

    raise ValueError(f"unknown workload {name!r}")
