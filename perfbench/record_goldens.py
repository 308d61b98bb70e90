"""Record goldens.json: report digests and certified fields of the inputs.

    python3 perfbench/record_goldens.py

Run it only on the program state that the goldens should pin (the commit
that defines the benchmark); later commits are compared against it.  It
records, for op seeds 0..GOLDEN_SEEDS-1, the sha256 of every report of the
shipped configs, S3 and S4, and for workload seeds 0..GOLDEN_SEEDS-1 the
reports of the dual ladder.  The certified fields of each shipped config
must be the same for every seed, and are stored once.  Takes about eight
minutes on two cores, most of it in S4.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
run.limit_blas_threads()

import freedim  # noqa: E402
from freedim import cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def report(op, out_path: str) -> bytes:
    argv = [op.scenario, "--config", op.config, "--seed", str(op.seed),
            "--output", out_path]
    if cli.main(argv) != 0:
        raise RuntimeError(f"{op.label} seed {op.seed} failed")
    with open(out_path, "rb") as fh:
        return fh.read()


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    tmp = os.path.join(run.OUT, "goldens-tmp")
    os.makedirs(tmp, exist_ok=True)
    out_path = os.path.join(tmp, "report.json")
    reports, certified = {}, {}

    def record(op) -> bytes:
        payload = report(op, out_path)
        reports[oracle.report_key(op)] = hashlib.sha256(payload).hexdigest()
        return payload

    for seed in range(workloads.GOLDEN_SEEDS):
        for op in workloads.build("shipped_configs", 0, run.ROOT, tmp).warmup:
            op = workloads.Op(op.label, op.scenario, op.config, seed, op.check)
            fields = oracle.certified(
                op.scenario, json.loads(record(op))["results"])
            if certified.setdefault(op.label, fields) != fields:
                raise RuntimeError(f"{op.label}: certified fields depend on the seed")
        wl = workloads.build("dual_ladder", seed, run.ROOT, tmp)
        for op in wl.warmup + wl.next_pass():
            record(op)
        wl = workloads.build("group_s4", 0, run.ROOT, tmp)
        for op in wl.warmup + wl.next_pass():
            record(workloads.Op(op.label, op.scenario, op.config, seed, op.check))
        print(f"seed {seed}: {len(reports)} reports", file=sys.stderr, flush=True)

    sources = sorted(glob.glob(os.path.join(run.SRC, "freedim", "*.py")))
    digest = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    goldens = {
        "source": {"freedim_version": freedim.__version__,
                   "src_sha256": digest.hexdigest()},
        "certified": certified,
        "reports": dict(sorted(reports.items())),
    }
    with open(oracle.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for path in glob.glob(os.path.join(tmp, "*")):
        os.unlink(path)
    os.rmdir(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
