"""Output oracle: judge each report against closed forms and recorded goldens.

The oracle does not trust the program's own agreement flags alone.  It
checks the certified numbers against what the mathematics fixes:

- regular representation of S_n: block sizes are the irreducible degrees,
  Delta = 1 - 1/n!, beta0 = 1/n!, and m_ij = n_i n_j - delta_ij (Schur);
- inner derivations are well defined by construction, so an ``inner``
  report must say ``well_defined: true`` with every residual under its
  gate from ``tolerances.py``;
- free Fisher information is +inf in finite dimensions;
- shipped configs: the certified fields equal the ones recorded in
  goldens.json from the program at the commit that added the benchmark.

Verdicts: ``ok``; ``failed`` for an operation that exited non-zero or whose
gate refused a valid input (the program declined to certify); ``wrong`` for
a report that certifies a value contradicting the oracle.  Both ``failed``
and ``wrong`` count toward the fail rate; only ``wrong`` makes a run
incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from freedim import tolerances

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Degrees of the irreducible representations of S_n, in the program's
# canonical block order (by first support position), as at the seed commit.
IRREP_DEGREES = {3: (1, 1, 2), 4: (1, 1, 2, 3, 3)}

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def report_key(op) -> str:
    """Key of a report in the goldens: scenario, config digest and op seed."""
    with open(op.config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return f"{op.scenario}:{digest}:{op.seed}"


def certified(scenario: str, results: dict) -> dict:
    """The fields of a report that are exact: fractions, multiplicities,
    booleans, ranks, kernel words and the counterexample table."""
    if scenario in ("delta", "group_finite"):
        keys = ["Delta_fraction", "beta0_fraction", "blocks", "block_sizes",
                "agreement", "group_order", "generators"]
    elif scenario == "dual_system":
        if results.get("mode") == "fisher":
            return {"mode": "fisher", "value": results["value"],
                    "slots_well_defined": [s["well_defined"]
                                           for s in results["slots"]]}
        keys = ["mode", "well_defined"]
    elif scenario == "cutoff":
        return {"smooth": results["smooth"],
                "R": [row["R"] for row in results["sweep"]],
                "zero_beyond_radius": results["zero_beyond_radius"],
                "conditions": results["conditions"]}
    elif scenario == "group_free":
        keys = ["rank", "delta", "kernel"]
    elif scenario == "counterexample":
        return results
    else:
        raise ValueError(f"no certified fields for scenario {scenario!r}")
    return {k: results[k] for k in keys if k in results}


def _check_group(results: dict, degree: int) -> str | None:
    order = 1
    for k in range(2, degree + 1):
        order *= k
    sizes = IRREP_DEGREES[degree]
    if tuple(results["block_sizes"]) != sizes:
        return f"block sizes {results['block_sizes']} != {list(sizes)}"
    if Fraction(results["Delta_fraction"]) != Fraction(order - 1, order):
        return f"Delta {results['Delta_fraction']} != {order - 1}/{order}"
    if Fraction(results["beta0_fraction"]) != Fraction(1, order):
        return f"beta0 {results['beta0_fraction']} != 1/{order}"
    b = len(sizes)
    if len(results["blocks"]) != b * b:
        return f"{len(results['blocks'])} block pairs, expected {b * b}"
    for blk in results["blocks"]:
        i, j = blk["i"], blk["j"]
        want = sizes[i] * sizes[j] - (i == j)
        if blk["multiplicity"] != want:
            return f"m_{i}{j} = {blk['multiplicity']} != {want}"
    if not all(results["agreement"].values()):
        return f"agreement flags {results['agreement']}"
    return None


def _check_inner(report: dict) -> tuple[str, str]:
    results, residuals = report["results"], report["residuals"]
    if not results["well_defined"]:
        return FAILED, (f"gate refused an inner derivation: defect "
                        f"{results['defect']:.3e} > WELLDEF_TOL "
                        f"{tolerances.WELLDEF_TOL:.0e}")
    if results["defect"] > tolerances.WELLDEF_TOL:
        return WRONG, f"well_defined with defect {results['defect']:.3e}"
    gate = tolerances.RESIDUAL_TOL
    for key in ("Y1", "commutators", "adjoint"):
        if key not in residuals or residuals[key] > gate:
            return WRONG, f"residual {key} = {residuals.get(key)} over {gate:.0e}"
    return OK, ""


def judge(op, rc: int, payload: bytes, goldens: dict) -> tuple[str, str]:
    """Verdict and reason for one operation's exit code and report bytes."""
    if rc != 0:
        return FAILED, f"exit code {rc}"
    try:
        report = json.loads(payload)
        results = report["results"]
        if report["scenario"] != op.scenario or report["seed"] != op.seed:
            return WRONG, "report echoes another scenario or seed"
        if op.check == "group":
            with open(op.config) as fh:
                degree = json.load(fh)["group"]["n"]
            reason = _check_group(results, degree)
            return (WRONG, reason) if reason else (OK, "")
        if op.check == "inner":
            return _check_inner(report)
        if op.check == "fisher":
            if results["value"] != "inf":
                return WRONG, f"fisher value {results['value']!r} is finite"
            return OK, ""
        if op.check == "shipped":
            want = goldens["certified"][op.label]
            if certified(op.scenario, results) != want:
                return WRONG, "certified fields differ from goldens.json"
            return OK, ""
    except (KeyError, TypeError, ValueError) as exc:
        return WRONG, f"malformed report: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown check {op.check!r}")
