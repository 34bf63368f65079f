"""Service benchmark: bulk ingest, small-window durable writes, skewed cached reads.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  Each metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
run writes (journal and arena files, span dumps, result records, the
determinism fingerprints) goes under ``.perfbench/`` in the repository.

See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="stream sizes; 'tiny' is for the smoke test only",
    )
    p.add_argument(
        "--inputs-to",
        type=Path,
        help="only generate the workload's inputs into this .npz file",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """sha256 over the program's and the benchmark's sources.

    Keys the fingerprint store: a fingerprint is only compared with one
    recorded by the same program and the same benchmark code.
    """
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def filesystem_of(path: Path) -> str:
    """The filesystem type mounted at ``path`` (longest mount-point match)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, journal_dir: Path) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "journal_fs": filesystem_of(journal_dir),
        "machine": platform.machine(),
    }


def check_fingerprint(store: Path, key: str, fingerprint: dict) -> str | None:
    """Compare with an earlier run of the same seed and program; record it."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != fingerprint:
        return f"fingerprint differs from an earlier run: {known[key]} != {fingerprint}"
    known[key] = fingerprint
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


INPUT_ARRAYS = ("kinds", "keys", "preload", "live_before")


def save_inputs(args: argparse.Namespace) -> None:
    """Generate the workload's inputs and write them to ``args.inputs_to``."""
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.size)
    with open(args.inputs_to, "wb") as fh:
        np.savez(fh, **{name: getattr(inputs, name) for name in INPUT_ARRAYS})


def generate_in_child(args: argparse.Namespace, path: Path):
    """The workload's inputs, made by a child process that has exited.

    The generators' dedup sets must not count toward this process's peak
    resident memory.  The child is a plain ``subprocess.run`` (waited
    for, killed if this process is interrupted); nothing of it outlives
    the call.
    """
    import workloads

    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", args.size,
        "--inputs-to", str(path),
    ]
    subprocess.run(cmd, check=True)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in INPUT_ARRAYS}
    path.unlink()
    return workloads.Inputs(
        **arrays,
        digest=workloads.stream_digest(
            arrays["kinds"], arrays["keys"], arrays["preload"]
        ),
    )


def run_one(args: argparse.Namespace, workroot: Path) -> dict:
    import measure
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    inputs = generate_in_child(args, Path(tempfile.gettempdir()) / "inputs.npz")

    plain, traced, problems = measure.run_reps(
        spec, inputs, args.seconds, traced_pairs=bool(args.trace)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    fingerprint = {"stream_sha256": inputs.digest, **plain[0].counts}
    mismatch = check_fingerprint(
        workroot / "fingerprints.json",
        f"{spec.name}|{args.size}|seed={args.seed}|src={source_digest()}",
        fingerprint,
    )
    if mismatch:
        problems.append(mismatch)

    if args.trace:
        metrics = {}
        for name, unit in measure.LAYER_UNITS.items():
            if name == "trace.overhead_ratio":
                value = statistics.median(
                    r.norm_wall_s for r in traced
                ) / statistics.median(r.norm_wall_s for r in plain)
            else:
                value = statistics.median(r.layers[name] for r in traced)
            metrics[name] = (value, unit)
        for rep in traced:
            problems.extend(rep.problems)
        traced[0].tracer.write(
            workroot / "traces" / f"{spec.name}-seed{args.seed}.jsonl"
        )
        notes = {"reps_untraced": len(plain), "reps_traced": len(traced)}
    else:
        metrics, notes = measure.end_to_end(plain, peak_rss_mb)

    for p in problems:
        print(f"perfbench: {spec.name}: {p}", file=sys.stderr)
    return {
        "workload": spec.name,
        "why": spec.why,
        "trace": args.trace,
        "size": args.size,
        "env": environment(args.seed, Path(tempfile.gettempdir())),
        "fingerprint": fingerprint,
        "notes": {**notes, "error_rate": failed / attempted},
        "problems": problems,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(record: dict) -> None:
    """Human-readable lines, then the result line."""
    print(f"# workload {record['workload']}: {record['why']}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    notes = {k: v for k, v in record["notes"].items() if k not in ("per_rep", "raw")}
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    if "raw" in record["notes"]:
        raw = json.dumps(record["notes"]["raw"], sort_keys=True)
        print(f"# raw (not speed-scaled) {raw}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'error_rate':28s} {record['notes']['error_rate']:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()
                },
            }
        )
    )


def run_all(args: argparse.Namespace, names) -> int:
    """Every workload, each in its own process (its own peak memory)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    if args.inputs_to is not None:
        save_inputs(args)
        return 0
    workroot = ROOT / ".perfbench"
    tmp = workroot / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    # Durable arenas and rep directories live under the repository, not
    # the system temp directory.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        record = run_one(args, workroot)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    results = workroot / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
