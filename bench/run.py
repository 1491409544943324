#!/usr/bin/env python3
"""The shipintent benchmark: one closed-loop caller driving the public API.

Usage, from the repository root::

    python3 bench/run.py --workload coastal_n1 --seed 0 --seconds 33 --trace 0

Every workload is a closed loop with one caller: the next AIS fix is fed
only after the previous decision returns, as ``replay`` and an onboard loop
do.  A *tick* is one ``step_update`` plus ``los_candidates`` plus
``score_candidates`` on the default six-candidate fan.  Each workload also
runs the analyst's side, ``shipintent extract-priors`` in-process on a
labelled corpus, so every workload reports every end-to-end metric.

A run first warms up with one extraction call and the first tick of the
first encounter (checked, not timed), so lazy imports and the first growth
of the heap stay out of the figures.  It then shares ``--seconds`` between
the two kinds of work, one operation at a time: the next operation is an
extraction call while extraction has had less than its share of the time
so far (``EXTRACT_SHARE``), otherwise the next operation of the encounter
replays (a session open or a tick), which cycle through the workload's
encounters.  Both kinds of sample thus spread evenly over the whole run,
which keeps the figures steadier on a machine whose speed drifts by tens
of percent over seconds.  The operation in progress at the deadline
finishes.

``coastal_n1``
    Four seeded head-on, crossing and overtaking encounters (29 ticks each)
    on a lane beside a jagged ~1e5-vertex coast; ``extract-priors`` calls
    over those same encounters and coast.
``open_sea_n2``
    Three short two-obstacle encounters (3 ticks each) with no map;
    ``extract-priors`` calls on a 60-encounter corpus and an empty map.
``corpus_extract``
    ``extract-priors`` calls on a 6-encounter corpus and a ~1e5-vertex
    coast GeoJSON; the replays are the first six fixes of one corpus
    encounter per label, with the fitted priors of the warm-up call and the
    coast re-projected about the encounter, as ``replay`` does.

End-to-end metrics (``--trace 0``) come from wall clocks around the public
calls; the output checks run outside those timed regions.  ``--trace 1``
instead replays the workload's script once untraced and once with every
layer wrapped (see ``spans.py``), and reports the per-layer metrics plus the
tracing overhead.  Spans are written to ``bench/traces/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give provenance, sample counts, the tick tail and the failed fraction.

Outputs are checked against invariants on every run and, for the seeds in
``bench/reference/`` (0 to 19), against stored posteriors, raw candidate
scores and fitted priors within 1e-12.  Each failed check fails its
operation.  ``--record-reference`` rewrites one seed's file from the
current code, replaying the script once.  ``python3 bench/selfcheck.py``
checks the checker.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: the load never exceeds nproc.  Set before
# numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SHIPINTENT_WORKERS"] = "1"
os.environ.pop("SHIPINTENT_OUT", None)

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
TRACE_DIR = BENCH_DIR / "traces"
WORK_DIR = BENCH_DIR / "_work"

TOL = 1e-12

#: Share of a timed run given to ``extract-priors`` calls, per workload.
EXTRACT_SHARE = {"coastal_n1": 0.2, "open_sea_n2": 0.1, "corpus_extract": 0.5}
#: Fixes replayed per corpus encounter after ``corpus_extract`` fits.
CORPUS_REPLAY_FIXES = 6


def _import_library():
    """Import shipintent from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import shipintent
    except ImportError as exc:
        sys.exit(f"bench: cannot import shipintent from {SRC}: {exc}")
    if Path(shipintent.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: imported shipintent from {shipintent.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# Output checks


class Checker:
    """Invariant and reference checks; each returns a list of problems."""

    def __init__(self, reference: dict | None, record: bool) -> None:
        self.reference = reference
        self.record = record
        self.recorded: dict[str, list[float]] = {}
        #: node probabilities outside [0, 1] by no more than TOL
        self.excursions = 0

    def _against(self, key: str, got: list[float], scale: bool = False) -> list[str]:
        if self.record:
            self.recorded.setdefault(key, got)
            return []
        if self.reference is None:
            return []
        want = self.reference.get(key)
        if want is None:
            return [f"{key}: no reference value"]
        if len(want) != len(got):
            return [f"{key}: {len(got)} values, reference has {len(want)}"]
        worst = max(
            (abs(g - w) / (max(1.0, abs(w)) if scale else 1.0) for g, w in zip(got, want)),
            default=0.0,
        )
        return [f"{key}: differs from reference by {worst:.3e}"] if worst > TOL else []

    def record_step(self, key: str, record) -> list[str]:
        problems = []
        flat: list[float] = []
        for name, probs in record.posterior.marginals.items():
            drift = abs(math.fsum(probs) - 1.0)
            if drift > TOL:
                problems.append(f"{key}: marginal {name} sums to 1{drift:+.2e}")
            flat.extend(probs)
        for name, p in record.node_probs.items():
            # The same float tolerance as every other check: the library can
            # return 1 + 1 ulp here (colav_ok_1 on coastal_n1, seed 2).
            if not -TOL <= p <= 1.0 + TOL:
                problems.append(f"{key}: node {name} has probability {p}")
            elif not 0.0 <= p <= 1.0:
                self.excursions += 1
        return problems + self._against(f"post:{key}", flat)

    def scores(self, key: str, result, hash_before: str, hash_after: str) -> list[str]:
        problems = []
        total = math.fsum(s.score for s in result.scores)
        if abs(total - 1.0) > TOL:
            problems.append(f"{key}: fan scores sum to {total!r}")
        if hash_before != hash_after:
            problems.append(f"{key}: scoring changed the session state")
        return problems + self._against(f"raw:{key}", [s.raw for s in result.scores])

    def priors(self, key: str, config_path: Path) -> list[str]:
        doc = json.loads(config_path.read_text())["priors"]
        flat = [
            float(doc[name][field])
            for name in sorted(doc)
            if isinstance(doc[name], dict)
            for field in ("mu", "sigma")
        ]
        return self._against(f"priors:{key}", flat, scale=True)


def _reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed{seed}.npz"


def load_reference(path: Path) -> dict[str, list[float]]:
    """Reference values by key: ``post:<encounter>:<fix>`` (posterior
    marginals, concatenated), ``raw:<encounter>:<fix>`` (raw fan scores) and
    ``priors:extract`` (fitted mu and sigma per threshold)."""
    import numpy as np

    with np.load(path) as data:
        keys, bounds, values = data["keys"], data["bounds"], data["values"]
    return {
        str(key): values[lo:hi].tolist() for key, lo, hi in zip(keys, bounds[:-1], bounds[1:])
    }


def save_reference(path: Path, reference: dict[str, list[float]]) -> None:
    import numpy as np

    keys = sorted(reference)
    bounds = np.cumsum([0] + [len(reference[k]) for k in keys])
    values = np.concatenate([np.asarray(reference[k], dtype=np.float64) for k in keys])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, keys=np.array(keys), bounds=bounds, values=values)


# --------------------------------------------------------------------------
# The closed loop


@dataclass
class Tally:
    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    score_s: list[float] = field(default_factory=list)
    tick_s: list[float] = field(default_factory=list)
    extract_s: list[float] = field(default_factory=list)
    floored: int = 0
    scored: int = 0
    slices_opened: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


class Bench:
    def __init__(self, inputs, checker: Checker, tracer=None) -> None:
        import shipintent.cli
        import shipintent.runtime
        import shipintent.trajgen

        # Calls go through the module attributes so a tracer can wrap them.
        self.cli = shipintent.cli
        self.rt = shipintent.runtime
        self.tg = shipintent.trajgen
        self.fan_params = shipintent.trajgen.LosParams()
        self.inputs = inputs
        self.checker = checker
        self.tracer = tracer
        self.tally = Tally()
        self.untraced = Tally()
        self.warm = Tally()
        # corpus_extract replays its own corpus once the first call has fitted it
        self.encounters = inputs.encounters or None
        self.priors = None

    def _op(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(kind)

    def replay(self, enc, priors=None, fixes: int | None = None) -> None:
        """Open a session on ``enc`` and tick through its fixes (or the first
        ``fixes`` of them)."""
        for _ in self.replay_ops(enc, priors, fixes):
            pass

    def replay_ops(self, enc, priors=None, fixes: int | None = None):
        """``replay`` one operation at a time: yields after the session open
        and after each tick."""
        t = self.tally
        t.attempted += 1
        self._op("open")
        try:
            start = time.perf_counter()
            session = self.rt.init_session(
                enc.own[0],
                [track[0] for track in enc.obstacles],
                priors=priors,
                hazard=enc.hazard,
                waypoint=enc.waypoint,
            )
            elapsed = time.perf_counter() - start
            problems = self.checker.record_step(f"{enc.name}:0", session.last_record)
        except Exception as exc:  # a failed open is counted, then the loop moves on
            t.fail([f"{enc.name}: init_session raised {exc!r}"])
            return
        # A wrong answer fails the operation but its timing still counts,
        # and the session can still tick.
        t.setup_s.append(elapsed)
        if problems:
            t.fail(problems)
        yield

        for k in range(1, min(len(enc.own), fixes or len(enc.own))):
            key = f"{enc.name}:{k}"
            t.attempted += 1
            self._op("tick")
            try:
                a = time.perf_counter()
                record = self.rt.step_update(session, enc.own[k], [tr[k] for tr in enc.obstacles])
                b = time.perf_counter()
                before = session.state_hash()
                c = time.perf_counter()
                fan = self.tg.los_candidates(session.own_state, self.fan_params)
                result = self.rt.score_candidates(session, fan)
                d = time.perf_counter()
                problems = self.checker.record_step(key, record)
                problems += self.checker.scores(key, result, before, session.state_hash())
            except Exception as exc:  # counted; the session may be poisoned, so stop it
                t.fail([f"{key}: tick raised {exc!r}"])
                return
            if problems:
                t.fail(problems)
            t.step_s.append(b - a)
            t.score_s.append(d - c)
            t.tick_s.append((b - a) + (d - c))
            t.slices_opened += record.added_slice
            t.scored += len(result.scores)
            t.floored += sum(s.raw == 0.0 for s in result.scores)
            yield

    def extract(self, key: str) -> Path | None:
        """One in-process ``extract-priors`` call; returns the fitted config."""
        corpus = self.inputs.corpus
        out = corpus.csv.with_name(f"fitted-{key}.json")
        argv = [
            "extract-priors", str(corpus.csv), str(corpus.map),
            "-o", str(out), "--labels", str(corpus.labels),
        ]
        t = self.tally
        t.attempted += 1
        self._op("extract")
        chatter = io.StringIO()
        try:
            with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
                start = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - start
            if code != 0:
                t.fail([f"extract {key}: exit {code}: {chatter.getvalue()}"])
                return None
            problems = self.checker.priors("extract", out)
        except Exception as exc:  # counted like any other failed operation
            t.fail([f"extract {key}: raised {exc!r}"])
            return None
        t.extract_s.append(elapsed)
        if problems:
            t.fail(problems)
        return out

    def corpus_replays(self, fitted: Path | None) -> tuple[object, list]:
        """The fitted priors, and one encounter per label from the corpus cut
        to its first fixes, with the coast re-projected about the encounter
        (as ``replay`` does)."""
        from inputs import ScriptedEncounter
        from shipintent.config import load_config
        from shipintent.dataio import load_ais_csv, load_map_geojson

        corpus = self.inputs.corpus
        loaded = load_ais_csv(corpus.csv, labels_path=corpus.labels)
        base_map = load_map_geojson(corpus.map)
        picked = {}
        for enc in loaded:
            picked.setdefault(enc.label, enc)
        n = CORPUS_REPLAY_FIXES
        priors = load_config(fitted).priors if fitted else None
        return priors, [
            ScriptedEncounter(
                enc.name,
                enc.reference[:n],
                (enc.obstacle[:n],),
                (enc.label,),
                None,
                base_map.to_origin(enc.origin),
            )
            for enc in picked.values()
        ]

    # -- whole workloads ---------------------------------------------------

    def _fit(self, key: str) -> None:
        """One extraction call; ``corpus_extract`` takes its replays (and
        their priors) from the first one."""
        fitted = self._step(self.extract, key)
        if self.encounters is None:
            self.priors, self.encounters = self.corpus_replays(fitted)

    def warm_up(self) -> None:
        """One extraction call and the first tick, checked into ``self.warm``
        so their timings are dropped."""
        kept, self.tally = self.tally, self.warm
        try:
            self._fit("warm-up")
            self.replay(self.encounters[0], self.priors, fixes=2)
        finally:
            self.tally = kept

    def replay_stream(self):
        """Operations of the encounter replays, cycling through the encounters."""
        for r in itertools.count():
            yield from self.replay_ops(self.encounters[r % len(self.encounters)], self.priors)
            yield  # the caller sees its deadline even if every open fails

    def timed(self, seconds: float) -> None:
        """The measured run: extraction calls while extraction has had less
        than its share of the time so far, else the next replay operation."""
        share = EXTRACT_SHARE[self.inputs.workload]
        replays = self.replay_stream()
        extract_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        while (now := time.perf_counter()) < deadline:
            if extract_s < share * (now - start):
                self.extract(str(len(self.tally.extract_s)))
                extract_s += time.perf_counter() - now
            else:
                next(replays)

    def one_pass(self) -> None:
        """The workload's script once, for tracing and recording: one
        extraction call, then one whole replay, per encounter."""
        self._fit("0")
        self._step(self.replay, self.encounters[0], priors=self.priors)
        for r in range(1, len(self.encounters)):
            self._step(self.extract, str(r))
            self._step(self.replay, self.encounters[r], priors=self.priors)

    def _step(self, fn, *args, **kwargs):
        """One step of the script.  With a tracer it runs untraced and then
        traced back to back, so the overhead compares like with like."""
        tracer, traced = self.tracer, self.tally
        if tracer is None:
            return fn(*args, **kwargs)
        self.tracer, self.tally = None, self.untraced
        try:
            fn(*args, **kwargs)
        finally:
            self.tracer, self.tally = tracer, traced
        tracer.install()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.uninstall()


# --------------------------------------------------------------------------
# Reporting


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 50, -1):
        idx = max(0, math.ceil(q / 100.0 * n) - 1)
        if n - idx - 1 >= 10:
            return q, ordered[idx]
    return None


def provenance() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git unavailable)"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "processes": 1,
    }


def end_to_end(tally: Tally, corpus_size: int) -> dict[str, tuple[float, str]]:
    run_s = sum(tally.setup_s) + sum(tally.tick_s)
    return {
        "setup_s": (_median(tally.setup_s), "s"),
        "tick_p50_ms": (1e3 * _median(tally.tick_s), "ms"),
        "step_p50_ms": (1e3 * _median(tally.step_s), "ms"),
        "score_p50_ms": (1e3 * _median(tally.score_s), "ms"),
        "replay_ticks_per_s": (len(tally.tick_s) / run_s if run_s else float("nan"), "1/s"),
        # Totals, not a median of per-call rates: on a machine whose speed
        # flips between states, the ratio of totals varies less between runs.
        "extract_enc_per_s": (
            corpus_size * len(tally.extract_s) / sum(tally.extract_s)
            if tally.extract_s else float("nan"), "1/s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Tally, untraced: Tally) -> dict[str, tuple[float, str]]:
    from spans import GROUNDING, KINEMATICS

    dur = tracer.durations()
    own = tracer.self_times()

    def ms(values: list[float]) -> float:
        return 1e3 * statistics.median(values) if values else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole > 0.0 else 0.0

    tick_total = sum(traced.tick_s)
    runtime_self = sum(
        sum(tracer.per_op_totals(name, "tick", self_time=True))
        for name in ("runtime.step_update", "runtime.score_candidates")
    )
    to_origin = sum(tracer.per_op_totals("geometry.PolygonMap.to_origin", "extract"))
    return {
        "runtime.init_session.self_ms": (ms(own["runtime.init_session"]), "ms"),
        "runtime.step_update.self_ms": (ms(own["runtime.step_update"]), "ms"),
        "runtime.score_candidates.self_ms": (ms(own["runtime.score_candidates"]), "ms"),
        "runtime.measure_candidate.ms": (ms(dur["runtime.measure_candidate"]), "ms"),
        "runtime.peak_mb": (tracer.runtime_peak_bytes / 2**20, "MB"),
        "runtime.slices_opened": (float(traced.slices_opened), "count"),
        "runtime.score.floored_frac": (share(traced.floored, traced.scored), "frac"),
        "geometry.grounding_measurements.calls": (float(len(dur[GROUNDING])), "count"),
        "geometry.grounding_measurements.ms": (ms(dur[GROUNDING]), "ms"),
        "geometry.grounding.saturated_frac": (
            share(tracer.sector_saturated, tracer.sector_distances), "frac"
        ),
        "geometry.PolygonMap.vertices.calls": (
            float(len(dur["geometry.PolygonMap.vertices"])), "count"
        ),
        "geometry.PolygonMap.to_origin.ms": (ms(dur["geometry.PolygonMap.to_origin"]), "ms"),
        "geometry.kinematics.ms": (ms(tracer.per_op_totals(KINEMATICS, "tick")), "ms"),
        "trajgen.los_candidates.ms": (ms(dur["trajgen.los_candidates"]), "ms"),
        "dataio.load_ais_csv.ms": (ms(dur["dataio.load_ais_csv"]), "ms"),
        "dataio.load_map_geojson.ms": (ms(dur["dataio.load_map_geojson"]), "ms"),
        "extract.collect_samples.self_ms": (ms(own["extract.collect_samples"]), "ms"),
        "extract.find_cpa.ms": (ms(dur["extract.find_cpa"]), "ms"),
        "extract.find_dist2grd_cpa.ms": (ms(dur["extract.find_dist2grd_cpa"]), "ms"),
        "tick.grounding_share": (
            share(sum(tracer.per_op_totals(GROUNDING, "tick")), tick_total), "frac"
        ),
        "tick.runtime_self_share": (share(runtime_self, tick_total), "frac"),
        "extract.to_origin_share": (share(to_origin, sum(traced.extract_s)), "frac"),
        "trace.overhead_ms": (
            1e3 * (_median(traced.tick_s) - _median(untraced.tick_s)), "ms"
        ),
    }


def largest_spans(tracer, count: int = 6) -> list[tuple[str, float]]:
    """Span names ranked by total self time, in seconds."""
    totals = {name: sum(vals) for name, vals in tracer.self_times().items()}
    return sorted(totals.items(), key=lambda kv: -kv[1])[:count]


# --------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shipintent benchmark")
    parser.add_argument("--workload", required=True, help="one of inputs.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path,
        help="reference file to check against (default: the stored one for --seed)",
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="replay the script once and store its outputs as the seed's reference",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    import inputs as gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(gen.WORKLOADS)}")

    reference_path = args.reference or _reference_path(args.workload, args.seed)
    reference = None
    if not args.record_reference and reference_path.exists():
        reference = load_reference(reference_path)
    checker = Checker(reference, record=args.record_reference)

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        generated = gen.generate(args.workload, args.seed, Path(tmp))
        tracer = None
        if args.trace and not args.record_reference:
            from spans import Tracer

            tracer = Tracer()
        bench = Bench(generated, checker, tracer)
        if args.record_reference or tracer is not None:
            bench.one_pass()
        else:
            bench.warm_up()
            bench.timed(args.seconds)
        tally = bench.tally
        for other in (bench.untraced, bench.warm):
            tally.attempted += other.attempted
            tally.failed += other.failed
            tally.problems += other.problems

    if args.record_reference:
        if tally.failed:
            sys.exit("bench: not recording a reference from a run with failures:\n"
                     + "\n".join(tally.problems[:20]))
        save_reference(reference_path, checker.recorded)
        print(f"recorded {len(checker.recorded)} reference entries to {reference_path}")
        return 0

    print(f"# provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} reference {'yes' if reference else 'none for this seed'}")
    print(f"# samples: {len(tally.setup_s)} session opens, {len(tally.tick_s)} ticks,"
          f" {len(tally.extract_s)} extraction calls")
    tail = tail_percentile(tally.tick_s)
    if tail is None:
        print(f"# tick_tail_ms: none ({len(tally.tick_s)} ticks, none qualifies above the median)")
    else:
        print(f"# tick_tail_ms: p{tail[0]} = {1e3 * tail[1]:.3f} ms over {len(tally.tick_s)} ticks")
    print(f"# failed_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6f}")
    if checker.excursions:
        print(f"# note: {checker.excursions} node probabilities left [0, 1] by at most {TOL:g}")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")

    if tracer is None:
        metrics = end_to_end(tally, generated.corpus.encounters)
    else:
        metrics = per_layer(tracer, tally, bench.untraced)
        for name, seconds in largest_spans(tracer):
            print(f"# self time {name}: {seconds:.3f} s")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(
            TRACE_DIR / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed},
        )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    unmeasured = [name for name, (value, _) in metrics.items() if math.isnan(value)]
    if unmeasured:
        sys.exit(f"bench: no successful samples for {unmeasured}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
