"""Benchmark of the rlvs pipeline, from tick and quote files to surface and
comparison files.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-5min --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``. With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end metric
named in ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric. The lines before it record the environment and the SHA-256 of every
output file. ``--smoke`` runs the workload at minimal size (see smoke.py).
Exit status: 0 when every pass ran and passed its checks, 1 when a pass
failed, 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, check=False)
    return res.stdout.strip() or None


def _environment(root: Path, nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root / "src" / "rlvs"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rlvs" / "__init__.py").is_file():
        print(f"error: no rlvs sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # One CPU for the whole run: the stages, the reference kernel that
    # measures the machine factor and the set-up interpreters (which inherit
    # the mask) then all see the same CPU's load. The highest-numbered CPU,
    # because the lowest tends to take the system's interrupts. One Python
    # thread; one BLAS thread, set before NumPy loads.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import rlvs

    if Path(rlvs.__file__).resolve().parent != (src / "rlvs").resolve():
        print(f"error: rlvs imported from {rlvs.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(table)}",
              file=sys.stderr)
        return 2
    w = table[args.workload]
    out_dir = root / ".perfbench"
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    work = out_dir / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    metrics: dict = {}
    run = None
    try:
        run = workloads.Run(root, w, args.seed, work)
        if args.trace:
            metrics = run.per_layer(out_dir / f"spans-{tag}.jsonl")
        else:
            metrics = run.end_to_end(args.seconds)
    except Exception:  # noqa: BLE001 - reported as a failed run below
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = run.attempted if run else 0
    failed = run.failed if run else 0
    if run is None or not metrics:
        attempted, failed = max(attempted, 1), max(failed, 1)
    correct = failed == 0
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "passes": attempted, **_environment(root, nproc),
        "outputs_sha256": run.hashes if run else None,
        "pass_times_s": run.passes if run else [],
        "undivided": run.raw if run else {},
    }
    (out_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
            return 1
        result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                             for m in wanted}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
