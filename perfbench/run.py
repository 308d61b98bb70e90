"""freedim benchmark: closed-loop CLI operations with an output oracle.

    python3 perfbench/run.py --workload group_s4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each operation is one in-process call ``freedim.cli.main([scenario,
"--config", path, "--seed", seed, "--output", file])``, run by a single
client in a closed loop: the next call starts when the previous one has
returned.  Inputs come from the workload seed (see workloads.py) and every
report is judged by oracle.py.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run for the per-layer metrics and then replays the same
operations untraced, to report the tracing overhead and to check that
tracing leaves the report bytes unchanged.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the environment and every operation, is written to
``.perfbench_out/`` in the checkout.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("group_s4", "dual_ladder", "shipped_configs")
SETUP_PROBES = 6          # extra set-ups in child processes, for a median
TAIL_BEYOND = 10          # samples required beyond the tail percentile
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    # the workloads are defined at the program's default residual gate
    os.environ.pop("FREEDIM_TOL", None)
    return nproc


class Bench:
    """Set-up state of one workload in this process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.out_path = os.path.join(self.tmp, "report.json")
        try:
            start = time.perf_counter()
            sys.path.insert(0, SRC)
            import freedim
            from freedim import cli

            if os.path.dirname(os.path.abspath(freedim.__file__)) != \
                    os.path.join(SRC, "freedim"):
                raise RuntimeError(f"imported freedim from {freedim.__file__}, "
                                   f"not from {SRC}")
            import oracle
            import workloads

            self.cli, self.oracle = cli, oracle
            self.goldens = oracle.load_goldens()
            self.workload = workloads.build(workload, seed, ROOT, self.tmp)
            self.warmup = [self.run(op) for op in self.workload.warmup]
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, op) -> dict:
        """One operation: time the CLI call, then judge its report."""
        argv = [op.scenario, "--config", op.config, "--seed", str(op.seed),
                "--output", self.out_path]
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback breaks the CLI contract
            rc = f"raised {type(exc).__name__}: {exc}"
        duration = time.perf_counter() - start
        payload = b""
        if rc == 0:
            with open(self.out_path, "rb") as fh:
                payload = fh.read()
        if isinstance(rc, int):
            verdict, reason = self.oracle.judge(op, rc, payload, self.goldens)
        else:
            verdict, reason = self.oracle.FAILED, rc
        if verdict != self.oracle.OK and rc != 0:
            reason += f"; stderr: {err.getvalue().strip()[-300:]}"
        golden = self.goldens["reports"].get(self.oracle.report_key(op))
        digest = hashlib.sha256(payload).hexdigest()
        return {"label": op.label, "seed": op.seed, "duration_s": duration,
                "rc": rc if isinstance(rc, int) else None, "verdict": verdict,
                "reason": reason, "sha256": digest,
                "golden_match": None if golden is None else golden == digest}

    def loop(self, seconds: float, ops=None, tracer=None) -> tuple[list, float]:
        """Run the passes that `seconds` stand for, or replay `ops`."""
        if ops is None:
            ops = [op for _ in range(self.workload.passes(seconds))
                   for op in self.workload.next_pass()]
        done = []
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(done)
            done.append((op, self.run(op)))
        return done, time.perf_counter() - start


def tail(durations: list[float]) -> dict:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentile p = floor(100 (n - TAIL_BEYOND) / n), so the
    value is never taken from the last TAIL_BEYOND samples.  With fewer
    than TAIL_BEYOND + 1 samples no such percentile exists and the maximum
    is reported (percentile 100, 0 samples beyond).
    """
    xs = sorted(durations)
    n = len(xs)
    if n > TAIL_BEYOND:
        p = 100 * (n - TAIL_BEYOND) // n
        k = max(1, math.ceil(p * n / 100))
    else:
        p, k = 100, n
    return {"value": xs[k - 1], "percentile": p, "samples": n, "beyond": n - k}


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(bench: Bench, seconds: float, probe) -> tuple:
    # Set-up is sampled before and after the timed loop: samples taken
    # back to back all fall in one spell of the host's speed.
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    done, wall = bench.loop(seconds)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    records = [r for _, r in done]
    durations = [r["duration_s"] for r in records]
    # The inputs of a workload differ in cost, so the median of all
    # operations falls between cost clusters and jumps with small shifts.
    # Each input's own median jumps too: the host alternates between fast
    # and slow spells of several seconds, and a median lands in whichever
    # spell covered more of the run.  The mean of each input's repeats
    # moves smoothly with that share, so op_p50_s is the median over
    # inputs of each input's mean.
    by_input = defaultdict(list)
    for r in records:
        by_input[r["label"]].append(r["duration_s"])
    t = tail(durations)
    metrics = {
        "setup_s": (statistics.median([bench.setup_s] + probes), "s"),
        "op_p50_s": (statistics.median(
            statistics.mean(v) for v in by_input.values()), "s"),
        "op_tail_s": (t["value"], "s"),
        "ops_per_s": (sum(r["rc"] == 0 for r in records) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"tail": t, "setup_samples_s": [bench.setup_s] + probes,
              "timed_wall_s": wall}
    return records, metrics, detail


def per_layer(bench: Bench, seconds: float) -> tuple:
    """Traced whole passes, then an untraced replay of the same operations."""
    import tracer as tracing

    tracer = tracing.Tracer().install()
    try:
        traced, _ = bench.loop(seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    replay, _ = bench.loop(0, ops=[op for op, _ in traced])
    records = [r for _, r in traced]
    plain = [r for _, r in replay]
    n = len(records)

    summary = tracer.summary()
    metrics = {}
    for name, row in summary.items():
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s/op")
        metrics[f"{name}.calls"] = (row["calls"] / n, "count/op")
    for name, (label, _) in tracing.WORK_COUNTS.items():
        metrics[f"{name}.{label}"] = (summary[name]["work"] / n, "count/op")
    for mod in tracing.MODULES:
        metrics[f"{mod}.failed"] = (sum(
            row["failed"] for name, row in summary.items()
            if name.startswith(mod + ".")), "count")
        metrics[f"{mod}.rss_rise_mb"] = (tracer.rss_rise_kb.get(mod, 0) / 1024.0,
                                         "MB")
    checked = [r["golden_match"] for r in plain if r["golden_match"] is not None]
    metrics["cli.report_bytes_changed"] = (checked.count(False), "count")
    metrics["cli.report_bytes_checked"] = (len(checked), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(r["duration_s"] for r in records)
        - statistics.median(r["duration_s"] for r in plain), "s")
    detail = {"traced_report_bytes_differ": sum(
                  a["sha256"] != b["sha256"] for a, b in zip(records, plain)),
              "bindings": tracer.bindings()}
    return tracer, records + plain, metrics, detail


def run_workload(args, nproc: int) -> int:
    bench = Bench(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup_s}))
            return 0
        env = environment(nproc)
        if args.trace:
            tracer, records, metrics, detail = per_layer(bench, args.seconds)
            tracer.write(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            records, metrics, detail = end_to_end(
                bench, args.seconds,
                lambda: setup_probe(args.workload, args.seed))
    finally:
        bench.close()

    ok, wrong = bench.oracle.OK, bench.oracle.WRONG
    attempted = len(records)
    failed = sum(r["verdict"] != ok for r in records)
    correct = (all(r["verdict"] != wrong for r in records + bench.warmup)
               and not detail.get("traced_report_bytes_differ"))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                fail_rate=failed / attempted, environment=env, detail=detail,
                warmup=bench.warmup, operations=records)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(fail_rate {failed / attempted:.4f}), correct {correct}")
    for r in records:
        if r["verdict"] != ok:
            print(f"  {r['verdict']}: {r['label']} seed {r['seed']}: {r['reason']}")
    if args.trace:
        print(f"  traced reports differing from the untraced replay: "
              f"{detail['traced_report_bytes_differ']}")
    else:
        t = detail["tail"]
        print(f"  op_tail_s is p{t['percentile']} of {t['samples']} samples "
              f"({t['beyond']} beyond)")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  full result in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("\n".join(lines[:-1]))
        rate = result["failed"] / result["attempted"]
        print(f"  {'fail_rate':<44} {rate:>14.6g} share")
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freedim", "__init__.py")):
        print(f"perfbench: no freedim sources under {SRC}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT, exist_ok=True)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
