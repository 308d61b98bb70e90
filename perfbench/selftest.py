"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs one pass of each workload traced and replays it untraced (about a
minute on two cores, most of it in S4), then checks that

- every named function is wrapped at every module of the package that
  binds it, so no call path escapes the spans;
- every named function has calls >= 1 on the workload meant to exercise it;
- the dimension engine (cocycles, wedderburn, and vndim apart from its
  numerical_span rank helper) has 0 calls on dual_ladder, the workload
  that bypasses it;
- the traced reports are byte-identical to the untraced ones.

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import importlib
import os
import sys

import run

sys.path.insert(0, run.SRC)
run.limit_blas_threads()

import tracer as tracing  # noqa: E402

# numerical_span is the package's rank helper: build_algebra and the
# derivation word system call it too, so it runs on every workload.
ENGINE = [n for n in tracing.NAMES
          if n.split(".")[0] in ("cocycles", "wedderburn", "vndim")
          and n != "vndim.numerical_span"]
EXPECTED = {
    "group_s4": [n for n in tracing.NAMES
                 if n.split(".")[0] in ("cli", "algebra", "wedderburn",
                                        "cocycles", "vndim")]
                + ["groups.regular_rep_algebra", "groups.symmetric_group"],
    "dual_ladder": [n for n in tracing.NAMES
                    if n.split(".")[0] in ("cli", "algebra", "derivations")],
    "shipped_configs": list(tracing.NAMES),
}


def check(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    return ok


def unwrapped_bindings() -> list[str]:
    """Attributes of freedim modules still bound to an original function."""
    originals = {id(getattr(importlib.import_module(f"freedim.{m}"), f))
                 for m, fs in tracing.FUNCTIONS.items() for f in fs}
    t = tracing.Tracer().install()
    try:
        return [f"{key}.{attr}" for key, mod in sys.modules.items()
                if key == "freedim" or key.startswith("freedim.")
                for attr, value in vars(mod).items() if id(value) in originals]
    finally:
        t.uninstall()


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    results = []
    left = unwrapped_bindings()
    results.append(check(not left, f"every binding wrapped (left: {left})"))

    for workload, expected in EXPECTED.items():
        bench = run.Bench(workload, 0)
        try:
            tracer, _, _, detail = run.per_layer(bench, 0)
        finally:
            bench.close()
        calls = {n: row["calls"] for n, row in tracer.summary().items()}
        missing = [n for n in expected if calls[n] < 1]
        results.append(check(not missing, f"{workload}: expected functions "
                                          f"called (missing: {missing})"))
        if workload == "dual_ladder":
            called = [n for n in ENGINE if calls[n]]
            results.append(check(not called, f"{workload}: dimension engine "
                                             f"not called (called: {called})"))
            print(f"  note: vndim.numerical_span ran {calls['vndim.numerical_span']:.0f}"
                  f" times on {workload} (algebra and derivation helpers)")
        differ = detail["traced_report_bytes_differ"]
        results.append(check(differ == 0, f"{workload}: traced report bytes "
                                          f"equal untraced ({differ} differ)"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
