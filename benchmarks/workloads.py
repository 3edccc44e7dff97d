"""The benchmark workloads and the closed loop that times them.

Each workload draws its inputs from ``--seed`` alone; the program sees
only the generated inputs. ``setup`` covers everything before timing
starts (evidist import, input generation, one warm-up op), ``prepare``
computes the oracle's answers before timing starts, so that no heavy
checking runs between timed ops, ``op(i)`` is the timed call and
``check(i, result)`` compares its output against the oracle outside the
timed region. Every call the benchmark makes into the program goes
through a module attribute (``self.cli.run_cli``, ...), so the tracer
can wrap exactly those calls by patching attributes.

The evidist import happens inside ``setup`` so that it is timed there.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracle

RANK_K = 10_000
RANK_N = 20
RANK_MEASURES = ("red", "jousselme", "betp")
FUSE_N = 64
FUSE_SOURCES = 8
FUSE_POOL = 1024
CLI_TIMEOUT_S = 60


def interval(lo: int, hi: int) -> int:
    """Bitmask of 0-based positions lo..hi inclusive."""
    return ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)


def random_entries(rng: random.Random, n: int) -> list[tuple[int, float]]:
    """1 to 6 distinct focal sets: about 40 % singletons, 40 % short
    intervals and 20 % random subsets, with random positive masses."""
    count = rng.randint(1, min(6, (1 << n) - 1))
    sets: list[int] = []
    while len(sets) < count:
        u = rng.random()
        if u < 0.4 or n == 1:
            bits = 1 << rng.randrange(n)
        elif u < 0.8:
            length = rng.randint(2, min(4, n))
            lo = rng.randint(0, n - length)
            bits = interval(lo, lo + length - 1)
        else:
            bits = 0
            while bits.bit_count() < 2:
                bits = rng.getrandbits(n)
        if bits not in sets:
            sets.append(bits)
    weights = [rng.random() + 0.05 for _ in sets]
    total = sum(weights)
    return [(bits, w / total) for bits, w in zip(sets, weights)]


def reference_entries(rng: random.Random, n: int) -> list[tuple[int, float]]:
    """The rank reference: a singleton, a 3-interval and a 10-member
    subset at random places with random masses. Its shape is the same on
    every seed, so the seed changes the data but not the work of scoring
    each candidate against it."""
    lo = rng.randrange(n - 2)
    sets = [1 << rng.randrange(n), interval(lo, lo + 2), sum(1 << p for p in rng.sample(range(n), 10))]
    weights = [rng.random() + 0.05 for _ in sets]
    total = sum(weights)
    return [(bits, w / total) for bits, w in zip(sets, weights)]


def frame_labels(n: int) -> list[str]:
    return [f"g{i}" for i in range(1, n + 1)]


def document_text(rng: random.Random, n: int, bbas: dict) -> str:
    """Serialise BBAs, spelling each set by labels or positions at random."""
    labels = frame_labels(n)
    body = {}
    for name, entries in bbas.items():
        items = []
        for bits, mass in entries:
            members = [i + 1 for i in oracle.positions(bits)]
            if rng.random() < 0.5:
                members = [labels[m - 1] for m in members]
            items.append({"set": members, "mass": mass})
        body[name] = items
    return json.dumps({"frame": labels, "bbas": body}, separators=(",", ":"))


def rank_inputs(seed: int, k: int, n: int = RANK_N) -> tuple[dict, str]:
    """K named BBAs on an N-frame and their document text; the first is
    the rank reference."""
    rng = random.Random(seed)
    bbas = {f"b{i:05d}": reference_entries(rng, n) if i == 0 else random_entries(rng, n) for i in range(k)}
    return bbas, document_text(rng, n, bbas)


def fuse_group(rng: random.Random, n: int = FUSE_N, sources: int = FUSE_SOURCES):
    """Interval evidence around a shared centre, plus whole-frame mass."""
    centre = rng.randint(10, n - 11)
    group = []
    for _ in range(sources):
        count = rng.randint(2, 5)
        sets: list[int] = []
        while len(sets) < count:
            middle = centre + rng.randint(-7, 7)
            bits = interval(max(0, middle - rng.randint(0, 9)), min(n - 1, middle + rng.randint(0, 9)))
            if bits not in sets:
                sets.append(bits)
        weights = [rng.random() + 0.1 for _ in sets]
        whole = rng.uniform(0.05, 0.2)
        total = sum(weights)
        entries = [(bits, (1.0 - whole) * w / total) for bits, w in zip(sets, weights)]
        entries.append((interval(0, n - 1), whole))
        group.append(entries)
    return group


def fuse_inputs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [fuse_group(rng) for _ in range(count)]


def closed_loop(workload, seconds=None, count=None, start=0, tracer=None, calibration=None) -> list:
    """Run ops from index ``start`` back to back until ``seconds`` of op
    time or ``count`` ops.

    Returns ``(kind, latency_s, error)`` per op. Only the op is timed; its
    check, and the calibration units that keep pace with the op time,
    run after the clock has stopped.
    """
    ops = []
    busy = 0.0
    clock = time.perf_counter
    i = start
    while (count is None and busy < seconds) or (count is not None and i < start + count):
        if tracer is not None:
            tracer.op = i
        error = None
        began = clock()
        try:
            result = workload.op(i)
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"op {i}: {type(exc).__name__}: {exc}"
        latency = clock() - began
        if error is None:
            try:
                error = workload.check(i, result)
            except Exception as exc:  # malformed output
                error = f"op {i}: output check raised {type(exc).__name__}: {exc}"
        ops.append((workload.kind(i), latency, error))
        busy += latency
        if calibration is not None:
            calibration.keep_up(busy)
        i += 1
    if tracer is not None:
        tracer.op = None
    return ops


class RankWorkload:
    """One in-process ``run_cli rank`` over a 10 000-BBA document per op.

    The harness keeps only the BBA names and, after ``prepare``, the
    oracle's distances: the generated entries are dropped once the
    document is written, so the process's peak RSS is mostly the
    program's.
    """

    name = "rank_10k"
    in_process = True

    def __init__(self, seed: int, out_dir: Path, k: int = RANK_K):
        self.seed = seed
        self.k = k
        self.path = out_dir / f"{self.name}-{os.getpid()}.json"
        self.distances: dict[str, dict[str, float]] = {}

    def setup(self):
        from evidist import cli

        self.cli = cli
        self.names = self.write_document()
        self.order = {name: i for i, name in enumerate(self.names)}
        self.reference = self.names[0]
        self.op(0)

    def write_document(self) -> list[str]:
        bbas, text = rank_inputs(self.seed, self.k)
        self.path.write_text(text, encoding="utf-8")
        return list(bbas)

    def prepare(self):
        """The oracle's distances to the reference, per measure, from the
        same seeded entries the document was written from."""
        bbas, _ = rank_inputs(self.seed, self.k)
        ref = bbas[self.reference]
        for kind in RANK_MEASURES:
            self.distances[kind] = {
                name: oracle.distance(kind, ref, entries, RANK_N) for name, entries in bbas.items()
            }

    def cleanup(self):
        self.path.unlink(missing_ok=True)

    def kind(self, i: int) -> str:
        return RANK_MEASURES[i % len(RANK_MEASURES)]

    def op(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        argv = ["rank", str(self.path), "--reference", self.reference, "--measure", self.kind(i)]
        return self.cli.run_cli(argv, stdout=out, stderr=err), out, err

    def check(self, i: int, result) -> str | None:
        status, out, err = result
        if status != 0:
            return f"exit {status}: {err.getvalue().strip()}"
        rows = oracle.ranked_rows(oracle.parse_rows(out.getvalue(), "csv"), "csv")
        return oracle.check_ranking(rows, self.distances[self.kind(i)], self.order)

    def decoded_entries(self):
        """Entry lists as the document spells them, for timing ``build_bba``."""
        raw = json.loads(self.path.read_text(encoding="utf-8"))
        return [[(e["set"], e["mass"]) for e in entries] for entries in raw["bbas"].values()]

    def traced_calls(self):
        import evidist.cli
        import evidist.distance

        return [
            (evidist.cli, "run_cli", "cli.run_cli", None),
            (evidist.cli, "parse_document", "document.parse_document",
             lambda args, doc: {"bbas": len(doc.bbas)}),
            (evidist.cli, "rank_by_distance", "ranking.rank_by_distance",
             lambda args, res: {"measure": res.measure.partition(":")[0], "k": len(res.entries)}),
            (evidist.distance.DistanceMeasure, "evaluate", "distance.DistanceMeasure.evaluate", None),
        ]


class FuseWorkload:
    """Dempster fold of 8 interval sources on N = 64 (about 90 focal sets
    fused), then the fused BBA scored against the first source with
    jousselme, red and betp:focal.

    Ops cycle over a pool of seeded groups, large enough that the pool's
    median op costs about the same on every seed. A group whose fold
    raises counts as a failed op; it is not filtered out.
    """

    name = "fuse_64"
    in_process = True

    def __init__(self, seed: int, pool: int = FUSE_POOL):
        self.seed = seed
        self.pool = pool
        self._expected: dict[int, tuple] = {}

    def setup(self):
        from evidist import combination, core, distance, pignistic

        self.combination, self.distance, self.pignistic = combination, distance, pignistic
        self.focal_mode = pignistic.BetPMode.FOCAL_SETS
        self.raw = fuse_inputs(self.seed, self.pool)
        frame = core.build_frame(frame_labels(FUSE_N))
        self.groups = [
            [core.build_bba(frame, [(core.FocalSet(frame, b), m) for b, m in source]) for source in group]
            for group in self.raw
        ]
        self.op(0)

    def prepare(self):
        for g in range(self.pool):
            self.expected(g)

    def cleanup(self):
        pass

    def kind(self, i: int) -> str:
        return "fuse"

    def op(self, i: int):
        group = self.groups[i % self.pool]
        fused = self.combination.combine_all(group)
        first = group[0]
        return (
            fused,
            self.distance.jousselme_distance(fused, first),
            self.distance.red_distance(fused, first),
            self.pignistic.dif_betp(fused, first, self.focal_mode),
        )

    def expected(self, g: int) -> tuple:
        """(fused sets, fused masses, jousselme, red, betp:focal, fold
        stats) by oracle. The fused entries are kept in flat arrays so that
        the harness adds little to the process's peak RSS."""
        if g not in self._expected:
            stats = oracle.FoldStats()
            sources = self.raw[g]
            fused = oracle.fold(sources, stats)
            first = oracle.merge(sources[0])
            self._expected[g] = (
                array("Q", [bits for bits, _ in fused]),
                array("d", [mass for _, mass in fused]),
                oracle.jousselme(fused, first),
                oracle.red(fused, first, FUSE_N),
                oracle.betp(fused, first, FUSE_N, "focal"),
                stats,
            )
        return self._expected[g]

    def check(self, i: int, result) -> str | None:
        fused, *scores = result
        want_bits, want_masses, *want_scores, _ = self.expected(i % self.pool)
        got = [(fs.bits, mass) for fs, mass in fused.entries]
        if [b for b, _ in got] != list(want_bits):
            return f"group {i % self.pool}: fused focal sets differ from the oracle's"
        for (bits, mass), want in zip(got, want_masses):
            if abs(mass - want) > oracle.VALUE_TOLERANCE:
                return f"group {i % self.pool}: mass {mass!r} on {bits:#x}, oracle {want!r}"
        for label, value, want in zip(("jousselme", "red", "betp:focal"), scores, want_scores):
            if abs(value - want) > oracle.VALUE_TOLERANCE:
                return f"group {i % self.pool}: {label} {value!r}, oracle {want!r}"
        return None

    def traced_calls(self):
        import evidist.combination
        import evidist.distance
        import evidist.pignistic

        return [
            (evidist.combination, "combine_all", "combination.combine_all", None),
            (evidist.combination, "combine_dempster", "combination.combine_dempster", None),
            (evidist.distance, "jousselme_distance", "distance.jousselme_distance", None),
            (evidist.distance, "red_distance", "distance.red_distance", None),
            (evidist.pignistic, "dif_betp", "pignistic.dif_betp", None),
        ]


EXAMPLES = ("grades_singletons.json", "grades_pairs.json", "sensor_readings.json")
# Sources in grades_singletons conflict totally, so combine uses the others.
COMBINABLE = ("grades_pairs.json", "sensor_readings.json")


class CliWorkload:
    """Sequential ``python -m evidist`` processes on docs/examples."""

    name = "cli_small"
    in_process = False

    def __init__(self, seed: int, root: Path, env: dict):
        self.seed = seed
        self.root = root
        self.env = env

    def setup(self):
        resolved = self.run([sys.executable, "-c", "import evidist; print(evidist.__file__)"])
        self.evidist_file = resolved.stdout.strip()
        self.docs = {
            name: oracle.Document((self.root / "docs" / "examples" / name).read_text(encoding="utf-8"))
            for name in EXAMPLES
        }
        self.commands = self.command_list(random.Random(self.seed))
        self.op(-1)

    def prepare(self):
        pass

    def cleanup(self):
        pass

    def run(self, argv):
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def command_list(self, rng: random.Random) -> list[tuple[str, list[str]]]:
        """Every command in CSV and JSON with seeded arguments, shuffled."""
        plain = []
        for name in EXAMPLES:
            doc = self.docs[name]
            path = f"docs/examples/{name}"
            bbas = list(doc.bbas)
            plain.append(["validate", path])
            plain.append(["ppt", path, "--bba", rng.choice(bbas)])
            for kind in ("red", "jousselme", "betp"):
                pair = rng.sample(bbas, 2)
                plain.append(["dist", path, "--pair", ",".join(pair), "--measure", kind])
            plain.append(["rank", path, "--reference", rng.choice(bbas),
                          "--measure", rng.choice(("red", "jousselme", "betp"))])
        for name in COMBINABLE:
            bbas = list(self.docs[name].bbas)
            chosen = rng.sample(bbas, rng.randint(2, len(bbas)))
            plain.append(["combine", f"docs/examples/{name}", "--bbas", ",".join(chosen)])
        plain.append(["repro", "examples"])
        plain.append(["repro", "sweep"])
        commands = [(fmt, ["--format", fmt, *argv]) for argv in plain for fmt in ("csv", "json")]
        rng.shuffle(commands)
        return commands

    def kind(self, i: int) -> str:
        return self.command(i)[1][2]

    def command(self, i: int):
        if i < 0:
            return "csv", ["--format", "csv", "validate", f"docs/examples/{EXAMPLES[0]}"]
        return self.commands[i % len(self.commands)]

    def op(self, i: int):
        return self.run([sys.executable, "-m", "evidist", *self.command(i)[1]])

    def check(self, i: int, result) -> str | None:
        fmt, argv = self.command(i)
        if result.returncode != 0:
            return f"{' '.join(argv)}: exit {result.returncode}: {result.stderr.strip()}"
        rows = oracle.parse_rows(result.stdout, fmt)
        error = self.check_rows(argv[2:], rows, fmt)
        return f"{' '.join(argv)}: {error}" if error else None

    def check_rows(self, argv: list[str], rows: list[dict], fmt: str) -> str | None:
        command = argv[0]
        if command == "repro":
            if argv[1] == "examples":
                return oracle.check_repro_examples(rows, fmt)
            return oracle.compare_rows(rows, oracle.sweep_rows(), fmt)
        doc = self.docs[Path(argv[1]).name]
        option = argv[3] if len(argv) > 3 else ""
        if command == "validate":
            return oracle.compare_rows(rows, oracle.validate_rows(doc), fmt)
        if command == "ppt":
            return oracle.compare_rows(rows, oracle.ppt_rows(doc, option), fmt)
        if command == "dist":
            first, second = option.split(",")
            return oracle.compare_rows(rows, oracle.dist_rows(doc, first, second, argv[5]), fmt)
        if command == "combine":
            return oracle.compare_rows(rows, oracle.combine_rows(doc, option.split(",")), fmt)
        reference, kind = option, argv[5]
        distances = {
            name: oracle.distance(kind, doc.bbas[reference], entries, doc.n)
            for name, entries in doc.bbas.items()
        }
        order = {name: i for i, name in enumerate(doc.bbas)}
        return oracle.check_ranking(oracle.ranked_rows(rows, fmt), distances, order)

    def traced_calls(self):
        return [(self, "op", "cli.process", None)]
