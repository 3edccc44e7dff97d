"""Metric definitions and the arithmetic that turns timings into metrics.

``END_TO_END`` and ``PER_LAYER`` mirror BENCHMARK.json (the benchmark's
own test keeps them in step). Each per-layer metric names the end-to-end
metric, and the workload, that a change to its layer should move.
"""

from __future__ import annotations

import math
import statistics

from calibration import REFERENCE_S, Calibration
from tracing import Tracer

# name: (unit, better, bound, meaning). Times are scaled to the
# reference host speed (calibration.py); each metric also carries its raw
# value.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "evidist import, input generation and one warm-up op, before timing; "
                "median of five cold set-ups, four of them in fresh --setup-only processes"),
    "ops_per_s": ("1/s", "higher", 0.25, "successful ops per second of timed op time"),
    "op_p50_ms": ("ms", "lower", 0.25, "median op latency"),
    "op_tail_ms": ("ms", "lower", 0.25,
                   "op latency at the workload's tail percentile (TAIL_PERCENTILE)"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak RSS of the process doing the work; for cli_small the largest child"),
}

# The report also carries, ungated, error_rate (ops that raised, exited
# non-zero or disagreed with the oracle, over ops attempted; 0 on a correct
# program), host.unit_ms (the calibration unit's median time in the run)
# and, on rank_10k only, rank_red_s, rank_jousselme_s and rank_betp_s
# (scaled median time of one rank call per measure).

# The tail percentile per workload, fixed so that a faster program is not
# read at a higher percentile: p90 on cli_small and p99 on fuse_64 leave
# well over ten samples beyond them in a 30-second run on a 2-core
# machine (about 150 and 2 000 ops). rank_10k makes only 22 to 30 ops, a
# third of them the slower jousselme ranks. p80 lies well inside that
# third and leaves 4 to 6 samples beyond it, fewer than ten, but the
# median would only repeat op_p50_ms, and a lower percentile sits on the
# edge of the third and jumps between the red/betp and the jousselme
# times from run to run. The report gives the number of samples beyond.
TAIL_PERCENTILE = {"rank_10k": 80, "cli_small": 90, "fuse_64": 99}

RANK = "rank_* on rank_10k"
CLI = "op_p50_ms on cli_small"
FUSE = "ops_per_s, op_p50_ms on fuse_64"

# name: (unit, better, moves)
PER_LAYER = {
    "import.interpreter_ms": ("ms", "lower", CLI),
    "import.numpy_ms": ("ms", "lower", CLI),
    "import.evidist_ms": ("ms", "lower", CLI),
    "cli.run_ms": ("ms", "lower", RANK),
    "cli.self_ms": ("ms", "lower", RANK),
    "document.parse_ms": ("ms", "lower", RANK),
    "document.bbas_per_s": ("1/s", "higher", RANK),
    "core.build_bba_us": ("us", "lower", f"{RANK}; op_p50_ms on fuse_64"),
    "pignistic.ppt_us.n5": ("us", "lower", "rank_red_s, rank_betp_s on rank_10k"),
    "pignistic.ppt_us.n20": ("us", "lower", "rank_red_s, rank_betp_s on rank_10k"),
    "pignistic.ppt_us.n64": ("us", "lower", "rank_red_s, rank_betp_s on rank_10k"),
    "pignistic.dif_betp_us.all": ("us", "lower", "rank_betp_s on rank_10k"),
    "pignistic.dif_betp_us.focal": ("us", "lower", "rank_betp_s on rank_10k"),
    "distance.red_us.n5": ("us", "lower", "rank_red_s on rank_10k"),
    "distance.red_us.n20": ("us", "lower", "rank_red_s on rank_10k"),
    "distance.red_us.n64": ("us", "lower", "rank_red_s on rank_10k"),
    "distance.jousselme_us.n5": ("us", "lower", "rank_jousselme_s on rank_10k"),
    "distance.jousselme_us.n20": ("us", "lower", "rank_jousselme_s on rank_10k"),
    "distance.jousselme_us.n64": ("us", "lower", "rank_jousselme_s on rank_10k"),
    "distance.jousselme_us.fused64": ("us", "lower", "op_p50_ms on fuse_64"),
    "ranking.rank_ms.red": ("ms", "lower", "rank_red_s on rank_10k"),
    "ranking.rank_ms.jousselme": ("ms", "lower", "rank_jousselme_s on rank_10k"),
    "ranking.rank_ms.betp": ("ms", "lower", "rank_betp_s on rank_10k"),
    "ranking.rank_ms.k100": ("ms", "lower", RANK),
    "ranking.self_ms.red": ("ms", "lower", "rank_red_s on rank_10k"),
    "ranking.self_ms.jousselme": ("ms", "lower", "rank_jousselme_s on rank_10k"),
    "ranking.self_ms.betp": ("ms", "lower", "rank_betp_s on rank_10k"),
    "combination.combine_us": ("us", "lower", FUSE),
    "combination.products": ("count", "lower", FUSE),
    "combination.useful_ratio": ("ratio", "higher", FUSE),
    "combination.fused_focal_sets": ("count", "lower", FUSE),
    "repro.sweep_ms": ("ms", "lower", CLI),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced time of the same ops"),
}


def median(values):
    return statistics.median(values) if values else math.nan


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(workload: str, ops, setups, peak_rss_mb, calibration: Calibration) -> dict:
    """``ops`` is a list of ``(kind, latency_s, error)`` and ``setups`` of
    ``(scaled_s, raw_s)``; op times are scaled by ``calibration``."""
    scale = calibration.factor()
    latencies = [lat for _, lat, _ in ops]
    ok = sum(1 for *_, error in ops if error is None)
    p = TAIL_PERCENTILE[workload]
    tail_rank = max(1, math.ceil(p / 100 * len(latencies)))
    tail = percentile(latencies, p)
    out = {}

    def scaled(name, raw, unit, samples, factor=scale, **extra):
        out[name] = metric(raw * factor, unit, samples, raw=raw, **extra)

    out["setup_s"] = metric(median([s for s, _ in setups]), "s", len(setups),
                            raw=median([r for _, r in setups]))
    scaled("ops_per_s", ok / sum(latencies), "1/s", len(latencies), factor=1 / scale)
    scaled("op_p50_ms", median(latencies) * 1e3, "ms", len(latencies))
    scaled("op_tail_ms", tail * 1e3, "ms", len(latencies), percentile=p, beyond=len(latencies) - tail_rank)
    out["peak_rss_mb"] = metric(peak_rss_mb, "MB", 1)
    out["error_rate"] = metric((len(ops) - ok) / len(ops), "ratio", len(ops))
    out["host.unit_ms"] = metric(median(calibration.samples) * 1e3, "ms", len(calibration.samples),
                                 reference_ms=REFERENCE_S * 1e3)
    if workload == "rank_10k":
        for kind in ("red", "jousselme", "betp"):
            times = [lat for k, lat, _ in ops if k == kind]
            scaled(f"rank_{kind}_s", median(times), "s", len(times))
    return out


def layers(ops: Tracer, fallback: Tracer, micro: Tracer, fold: list, imports: dict,
           overhead: float, overhead_ops: int) -> dict:
    """Per-layer metrics from three span sets.

    A layer's calls are read from the workload's own traced ops when the
    workload makes them, otherwise from the probe's small rank run
    and fuse run (``fallback``); ``source`` says which. ``fold`` gives the
    probe's fuse run ``(products, useful, fused focal sets)`` per group.
    Fixed-size micro timings always come from ``micro``.
    """
    out = {}
    self_times = {id(ops): ops.self_times(), id(fallback): fallback.self_times()}

    def chosen(name):
        tracer = ops if ops.named(name) else fallback
        return tracer, tracer.named(name), "ops" if tracer is ops else "probe"

    def put(name, value, samples, **extra):
        out[name] = metric(value, PER_LAYER[name][0], samples, **extra)

    def timed(name, tracer, spans, scale, **extra):
        put(name, median([tracer.duration(i) for i in spans]) * scale, len(spans), **extra)

    def self_ms(name, tracer, spans, **extra):
        own = self_times[id(tracer)]
        put(name, median([own[i] for i in spans]) * 1e3, len(spans), **extra)

    for name, value in imports.items():
        put(f"import.{name}_ms", value["ms"], value["samples"])

    tracer, run, source = chosen("cli.run_cli")
    timed("cli.run_ms", tracer, run, 1e3, source=source)
    self_ms("cli.self_ms", tracer, run, source=source)

    tracer, parse, source = chosen("document.parse_document")
    parse_time = sum(tracer.duration(i) for i in parse)
    timed("document.parse_ms", tracer, parse, 1e3, source=source)
    put("document.bbas_per_s", sum(tracer.attrs[i]["bbas"] for i in parse) / parse_time if parse_time else math.nan,
        len(parse), source=source)

    tracer, build, source = chosen("core.build_bba")
    timed("core.build_bba_us", tracer, build, 1e6, source=source)

    tracer, rank, source = chosen("ranking.rank_by_distance")
    for kind in ("red", "jousselme", "betp"):
        spans = [i for i in rank if tracer.attrs[i]["measure"] == kind]
        timed(f"ranking.rank_ms.{kind}", tracer, spans, 1e3, source=source)
        self_ms(f"ranking.self_ms.{kind}", tracer, spans, source=source)

    tracer, combine, source = chosen("combination.combine_dempster")
    timed("combination.combine_us", tracer, combine, 1e6, source=source)
    products = sum(p for p, _, _ in fold)
    put("combination.products", median([p for p, _, _ in fold]), len(fold))
    put("combination.useful_ratio", sum(u for _, u, _ in fold) / products if products else math.nan,
        len(fold), base_products=products)
    put("combination.fused_focal_sets", median([f for _, _, f in fold]), len(fold))
    tracer, fused64, source = chosen("distance.jousselme_distance")
    timed("distance.jousselme_us.fused64", tracer, fused64, 1e6, source=source)

    def micro_timed(name, span_name, key, value, scale=1e6):
        spans = [i for i in micro.named(span_name) if key is None or micro.attrs[i][key] == value]
        timed(name, micro, spans, scale)

    for n in (5, 20, 64):
        micro_timed(f"pignistic.ppt_us.n{n}", "pignistic.ppt", "n", n)
        micro_timed(f"distance.red_us.n{n}", "distance.red_distance", "n", n)
        micro_timed(f"distance.jousselme_us.n{n}", "distance.jousselme_distance", "n", n)
    for scope in ("all", "focal"):
        micro_timed(f"pignistic.dif_betp_us.{scope}", "pignistic.dif_betp", "scope", scope)
    micro_timed("ranking.rank_ms.k100", "ranking.rank_by_distance", None, None, 1e3)
    micro_timed("repro.sweep_ms", "repro.sweep_rows", None, None, 1e3)
    put("trace.overhead_ratio", overhead, overhead_ops)
    return out
