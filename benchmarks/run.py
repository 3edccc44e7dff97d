"""evidist benchmark: three seeded workloads, end-to-end or traced.

Usage, from the repository root::

    python3 benchmarks/run.py --workload rank_10k --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``rank_10k``  in-process ``run_cli rank`` over 10 000 BBAs on N = 20,
  cycling the measure over red, jousselme and betp;
* ``cli_small`` sequential ``python -m evidist`` processes on the
  documents in docs/examples;
* ``fuse_64``   in-process Dempster folds of 8 interval sources on
  N = 64, each fused BBA scored with jousselme, red and betp:focal.

One process, one caller, closed loop: the next op starts when the last
one has returned. Every output is checked against the stdlib oracle in
oracle.py, outside the timed region. ``--trace 0`` prints the end-to-end
metrics, with times scaled to a reference host speed by the calibration
units timed between ops (calibration.py); ``--trace 1`` runs the same
ops untraced and then traced, adds the layer probe and prints the
per-layer metrics. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the full report with the environment and sample counts,
also written to benchmarks/out/. The program must be this checkout's
src/evidist; the run stops with exit status 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import metrics
import probe
from calibration import SETUP_UNITS, Calibration
from tracing import Tracer
from workloads import CliWorkload, FuseWorkload, RankWorkload, closed_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("rank_10k", "cli_small", "fuse_64")
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up in this process and print it")
    return parser.parse_args(argv)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def require_checkout(evidist_file: str):
    """Stop unless evidist resolved to this checkout's sources."""
    resolved = Path(evidist_file).resolve()
    if SRC.resolve() not in resolved.parents:
        sys.exit(f"run.py: evidist resolved to {resolved}, not under {SRC}")


def make_workload(name: str, seed: int, env: dict):
    if name == "rank_10k":
        return RankWorkload(seed, OUT)
    if name == "fuse_64":
        return FuseWorkload(seed)
    return CliWorkload(seed, ROOT, env)


def cold_setup(workload) -> tuple[float, float]:
    """One timed set-up, ``(scaled_s, raw_s)``, scaled by calibration
    units timed right after it."""
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    calibration = Calibration()
    calibration.measure(SETUP_UNITS)
    return elapsed * calibration.factor(), elapsed


def setup_samples(args, env) -> list[tuple[float, float]]:
    """Cold set-ups from fresh processes running ``--setup-only``."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.exit(f"run.py: set-up child failed: {done.stderr.strip()}")
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, evidist_file: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "evidist_file": evidist_file,
    }


def untraced_run(args, workload, setup) -> tuple[dict, list, int]:
    calibration = Calibration()
    ops = closed_loop(workload, seconds=args.seconds, calibration=calibration)
    e2e = metrics.end_to_end(args.workload, ops, setup, peak_rss_mb(workload), calibration)
    return e2e, [e for *_, e in ops if e], len(ops)


def paired_loop(workload, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Run every op twice, untraced and traced, in alternating order, until
    ``seconds`` of op time; pairing keeps the machine's drift out of the
    traced-over-untraced ratio."""
    untraced, traced = [], []
    calls = workload.traced_calls()
    busy = 0.0
    i = 0
    while busy < seconds:
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                with tracer.installed(calls):
                    traced += closed_loop(workload, count=1, start=i, tracer=tracer)
                busy += traced[-1][1]
            else:
                untraced += closed_loop(workload, count=1, start=i)
                busy += untraced[-1][1]
        i += 1
    return untraced, traced


def traced_run(args, workload, env) -> tuple[dict, list, int, dict]:
    tracer = Tracer()
    untraced, traced = paired_loop(workload, args.seconds, tracer)
    overhead = sum(lat for _, lat, _ in traced) / sum(lat for _, lat, _ in untraced)
    errors = [e for *_, e in untraced + traced if e]
    if workload.name == "rank_10k":
        probe.build_entries(tracer, workload)
    fallback, fold, probe_ops = probe.fallback(args.seed, OUT, errors)
    micro = probe.micro(args.seed)
    imports = probe.import_times(ROOT, env)
    layers = metrics.layers(tracer, fallback, micro, fold, imports, overhead, len(traced))
    for name, spans in (("ops", tracer), ("probe", fallback), ("micro", micro)):
        spans.write(OUT / f"spans-{args.workload}-{name}.jsonl")
    return layers, errors, len(untraced) + len(traced) + probe_ops, self_time_check(workload, tracer, untraced)


def self_time_check(workload, tracer: Tracer, untraced: list) -> dict:
    """Per measure on rank_10k: the traced ``run_cli`` time, which its
    layers' self times add up to, over the untraced op time."""
    if workload.name != "rank_10k":
        return {}
    out = {}
    for kind in ("red", "jousselme", "betp"):
        traced = sum(tracer.duration(i) for i in tracer.named("cli.run_cli") if workload.kind(tracer.ops[i]) == kind)
        plain = sum(lat for k, lat, _ in untraced if k == kind)
        if plain:
            out[kind] = traced / plain
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evidist" / "__init__.py").is_file():
        print(f"run.py: no evidist sources at {SRC / 'evidist'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = program_env()
    workload = make_workload(args.workload, args.seed, env)

    if args.setup_only:
        try:
            print(json.dumps({"setup_s": cold_setup(workload)}))
        finally:
            workload.cleanup()
        return 0

    setup = [] if args.trace else setup_samples(args, env)
    try:
        setup.append(cold_setup(workload))
        workload.prepare()
        if workload.in_process:
            import evidist

            evidist_file = evidist.__file__
        else:
            evidist_file = workload.evidist_file
        require_checkout(evidist_file)
        if args.trace:
            values, errors, attempted, selfcheck = traced_run(args, workload, env)
            table = metrics.PER_LAYER
        else:
            values, errors, attempted = untraced_run(args, workload, setup)
            selfcheck = {}
            table = metrics.END_TO_END
    finally:
        workload.cleanup()

    report = {"environment": environment(args, evidist_file), "metrics": values,
              "errors": errors[:20]}
    if selfcheck:
        report["traced_over_untraced"] = selfcheck
    text = json.dumps(report, indent=1)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    for error in errors[:5]:
        print(f"run.py: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name]["value"], "unit": values[name]["unit"]}
                    for name in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
