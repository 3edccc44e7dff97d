"""The layer probe that every traced run makes after its workload's ops.

* ``import_times`` starts fresh interpreters: bare, ``import numpy`` and
  ``import evidist``, and reports the two imports against the bare one.
* ``micro`` times single calls at fixed frame sizes (5, 20, 64), a
  100-candidate ranking and the ``repro sweep`` report.
* ``fallback`` runs a small version of rank_10k (1 000 BBAs), so a
  workload that does not call a layer itself still reports that layer,
  and a small version of fuse_64 (32 groups). Its inputs are the same on
  every workload.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from metrics import median
from tracing import Tracer
from workloads import RANK_N, FuseWorkload, RankWorkload, closed_loop, frame_labels, random_entries

IMPORT_REPS = 5
MICRO_PAIRS = 100
MICRO_REPS = 3
FALLBACK_RANK_K = 1_000
FALLBACK_RANK_OPS = 6
FALLBACK_FUSE_GROUPS = 32


def import_times(root, env) -> dict:
    """Median wall ms of ``python -c`` per statement, imports net of bare."""
    statements = {"interpreter": "pass", "numpy": "import numpy", "evidist": "import evidist"}
    samples = {name: [] for name in statements}
    for _ in range(IMPORT_REPS):
        for name, statement in statements.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", statement], cwd=root, env=env, check=True,
                           capture_output=True, timeout=60)
            samples[name].append(time.perf_counter() - start)
    bare = median(samples["interpreter"])
    return {
        name: {"ms": (median(times) - (0.0 if name == "interpreter" else bare)) * 1e3,
               "samples": len(times)}
        for name, times in samples.items()
    }


def micro(seed: int) -> Tracer:
    from evidist import core, distance, pignistic, ranking, repro

    tracer = Tracer()
    rng = random.Random(seed)
    for n in (5, 20, 64):
        frame = core.build_frame(frame_labels(n))
        bbas = [
            core.build_bba(frame, [(core.FocalSet(frame, b), m) for b, m in random_entries(rng, n)])
            for _ in range(2 * MICRO_PAIRS)
        ]
        pairs = list(zip(bbas[::2], bbas[1::2]))
        tag = lambda args, result, n=n: {"n": n}
        ppt = tracer.wrap("pignistic.ppt", pignistic.ppt, tag)
        red = tracer.wrap("distance.red_distance", distance.red_distance, tag)
        jousselme = tracer.wrap("distance.jousselme_distance", distance.jousselme_distance, tag)
        for _ in range(MICRO_REPS):
            for bba in bbas:
                ppt(bba)
            for a, b in pairs:
                red(a, b)
                jousselme(a, b)
        if n == 20:
            betp = tracer.wrap("pignistic.dif_betp", pignistic.dif_betp,
                               lambda args, result: {"scope": args[2].value})
            for _ in range(MICRO_REPS):
                for mode in (pignistic.BetPMode.ALL_SUBSETS, pignistic.BetPMode.FOCAL_SETS):
                    for a, b in pairs:
                        betp(a, b, mode)
            names = {f"c{i}": bba for i, bba in enumerate(bbas[:100])}
            rank = tracer.wrap("ranking.rank_by_distance", ranking.rank_by_distance)
            measure = distance.DistanceMeasure.parse("red")
            for _ in range(20):
                rank(bbas[0], names, measure)
    sweep = tracer.wrap("repro.sweep_rows", repro.sweep_rows)
    for _ in range(5):
        sweep()
    return tracer


def fallback(seed: int, out_dir, errors: list) -> tuple[Tracer, list, int]:
    """Traced small rank and fuse runs. Returns the spans, per fused op
    ``(products, useful products, fused focal sets)``, and the op count;
    output disagreements are appended to ``errors``."""
    tracer = Tracer()
    rank = RankWorkload(seed, out_dir, k=FALLBACK_RANK_K)
    fuse = FuseWorkload(seed, pool=FALLBACK_FUSE_GROUPS)
    try:
        for workload in (rank, fuse):
            workload.setup()
            workload.prepare()
        for workload, count in ((rank, FALLBACK_RANK_OPS), (fuse, FALLBACK_FUSE_GROUPS)):
            with tracer.installed(workload.traced_calls()):
                ops = closed_loop(workload, count=count, tracer=tracer)
            errors += [f"probe {workload.name}: {e}" for *_, e in ops if e]
        build_entries(tracer, rank)
    finally:
        rank.cleanup()
    return tracer, fold_stats(fuse, range(FALLBACK_FUSE_GROUPS)), FALLBACK_RANK_OPS + FALLBACK_FUSE_GROUPS


def build_entries(tracer: Tracer, rank: RankWorkload):
    """``core.build_bba`` spans over a rank document's decoded entries."""
    from evidist import core

    frame = core.build_frame(frame_labels(RANK_N))
    build = tracer.wrap("core.build_bba", core.build_bba)
    for entries in rank.decoded_entries():
        build(frame, entries)


def fold_stats(fuse: FuseWorkload, op_ids) -> list:
    out = []
    for i in op_ids:
        fused, *_, stats = fuse.expected(i % fuse.pool)
        out.append((stats.products, stats.useful, len(fused)))
    return out
