#!/usr/bin/env python3
"""SurfOS end-to-end benchmark with a per-layer trace.

Run from the repository root::

    python3 surfbench/run.py --workload roam --seed 1 --seconds 24 --trace 0

Workloads: ``roam``, ``dwell-faults``, ``admit-churn`` (see ``spec.py``
for why each exists and what each metric should respond to), or
``all`` for the three in turn.  ``--trace 0`` prints the end-to-end
metrics, measured untraced; ``--trace 1`` runs traced episodes between
untraced ones and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Provenance (nproc, thread settings, BLAS,
source revision) is printed on the line before it and written with
the span trace under ``surfbench/out/``.

The benchmark's own arithmetic is self-tested before every run;
``python3 -m pytest surfbench/selftest.py`` runs the same tests.
``--write-json`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

import os

#: Pin every BLAS/OpenMP pool to one thread before NumPy is imported;
#: unpinned pools made reaction times spread widely on a 2-core host.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _blas_vendor() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '')} {blas.get('version', '')}".strip() or "unknown"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _source_revision() -> dict:
    """Git SHA when available, and a digest of ``src/`` always."""
    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        # Only this tree's own repository counts, not an enclosing one.
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha1": digest.hexdigest()[:12]}


def meta(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import spec

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": _nproc(),
        "workload_threads": spec.workload(workload).threads,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "blas": _blas_vendor(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **_source_revision(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import measure
    import spec

    info = meta(workload, seed, seconds, trace)
    threads = spec.workload(workload).threads
    if threads > info["nproc"]:
        raise SystemExit(
            f"{workload} is configured for {threads} threads; nproc is {info['nproc']}"
        )
    result = measure.run(workload, seed, seconds, trace, info["nproc"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if trace:
        measure.export_spans(
            result, str(out_dir / f"spans-{workload}-{seed}.jsonl"), info
        )
    print(f"# meta {json.dumps(info, sort_keys=True)}")
    print(f"# details {json.dumps(result.details, sort_keys=True)}")
    for problem in result.problems:
        print(f"# FAILED {problem}")
    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    for name, value in result.metrics.items():
        print(f"{workload:>12}  {name:<34} {value:>14.6g} {units[name]}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-json", action="store_true",
        help="write BENCHMARK.json from spec.py and exit",
    )
    args = parser.parse_args(argv)
    if args.write_json:
        import spec

        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if not (SRC / "repro").is_dir():
        print(f"surfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import selftest
    import spec

    selftest.run_all()
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    names = [w.name for w in spec.WORKLOADS] if args.workload == "all" else [args.workload]
    for name in names:
        spec.workload(name)  # unknown names fail before any work
    results = {name: run_one(name, args.seed, seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
