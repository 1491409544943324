"""Command-line front end: prior extraction, encounter replay, and scoring.

Verbs
-----
``extract-priors``
    Fit threshold priors from a labeled AIS corpus plus a coastline map and
    write a complete run configuration alongside a fitting report.
``replay``
    Step an encounter through the intention engine, scoring the maneuver fan
    at every update, and export one row of beliefs per step.
``score``
    Replay an encounter up to a chosen time and print the candidate table.
``selftest``
    Run the built-in end-to-end checks and print ok/FAIL per check.

Exit status is 0 on success, 1 for invalid input (arguments, files, schema,
configuration), and 2 when observations contradict the model.

``SHIPINTENT_OUT`` prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .bn import ContradictionError, joint_enumerate_oracle, posterior, random_network, set_evidence
from .config import RunConfig, default_config, load_config, save_config
from .dataio import DataError, RunRecord, export_run, load_ais_csv, load_map_geojson
from .discretize import (
    THRESHOLDS,
    Discretization,
    IntentionPriors,
    real_to_bin,
    threshold_prior_masses,
)
from .extract import (
    Encounter,
    collect_samples,
    priors_from_result,
    result_from_samples,
)
from .geometry import (
    GeometryParams,
    PolygonMap,
    ShipState,
    Waypoint,
    angle_diff,
    grounding_measurements,
    project_local,
    sector_ground_distance,
)
from .netbuild import apply_measurement_evidence, assert_compatible, build_intention_dbn
from .nodes import course_held
from .runtime import (
    ScoreResult,
    Session,
    _constraint,
    _firsts,
    _fold,
    _lumped,
    _observed,
    _virtual_root_dists,
    init_session,
    measure_candidate,
    score_candidates,
    step_update,
)
from .trajgen import LosParams, los_candidates


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------


def _resolve_out(out: str) -> Path:
    """Apply the SHIPINTENT_OUT prefix and make sure the directory exists."""
    path = Path(out)
    prefix = os.environ.get("SHIPINTENT_OUT")
    if prefix and not path.is_absolute():
        path = Path(prefix) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _pick_encounter(
    encounters: Sequence[Encounter], wanted: str | None, path: str
) -> Encounter:
    if wanted is not None:
        for enc in encounters:
            if enc.name == wanted:
                return enc
        known = ", ".join(sorted(e.name for e in encounters))
        raise DataError(f"{path}: no encounter {wanted!r} (have: {known})")
    if len(encounters) != 1:
        known = ", ".join(sorted(e.name for e in encounters))
        raise DataError(
            f"{path}: {len(encounters)} encounters; pick one with"
            f" --encounter-id ({known})"
        )
    return encounters[0]


def _parse_waypoint(
    raw: str | None, origin: tuple[float, float] | None
) -> Waypoint | None:
    if raw is None:
        return None
    try:
        lat_text, lon_text = raw.split(",")
        lat, lon = float(lat_text), float(lon_text)
    except ValueError as exc:
        raise DataError(f"--waypoint {raw!r}: expected LAT,LON") from exc
    if origin is None:
        raise DataError("--waypoint needs an encounter with a geographic origin")
    x, y = project_local(lat, lon, origin)
    return Waypoint(x, y)


def _open_session(
    pairs: Sequence[tuple[ShipState, ShipState]],
    cfg: RunConfig,
    *,
    hazard: PolygonMap | None,
    waypoint: Waypoint | None,
) -> Session:
    own0, obs0 = pairs[0]
    return init_session(
        own0,
        [obs0],
        priors=cfg.priors,
        disc=cfg.discretization,
        geom=cfg.geometry,
        policy=cfg.slice_policy,
        lookahead=cfg.lookahead,
        hazard=hazard,
        waypoint=waypoint,
    )


def _score_fan(session: Session, cfg: RunConfig) -> ScoreResult:
    fan = los_candidates(session.own_state, cfg.trajectories)
    return score_candidates(session, fan)


# --------------------------------------------------------------------------
# extract-priors
# --------------------------------------------------------------------------


def _cmd_extract_priors(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    encounters = load_ais_csv(args.corpus, labels_path=args.labels)
    if not encounters:
        raise DataError(f"{args.corpus}: no usable encounters")
    samples = collect_samples(
        encounters,
        load_map_geojson(args.map),
        dist_thresh=cfg.ground_threshold,
        params=cfg.geometry,
        spacing=cfg.map_densify_spacing,
    )
    result = result_from_samples(samples, cfg.discretization)
    priors = priors_from_result(result, cfg.discretization, base=cfg.priors)

    out = _resolve_out(args.out)
    save_config(replace(cfg, priors=priors), out)
    report = result.report()
    Path(f"{out}.report.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# replay / score
# --------------------------------------------------------------------------


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    encounters = load_ais_csv(args.encounter, labels_path=args.labels)
    enc = _pick_encounter(encounters, args.encounter_id, args.encounter)
    base_map = load_map_geojson(args.map)
    hazard = base_map.framed(enc.origin, cfg.map_densify_spacing)
    waypoint = _parse_waypoint(args.waypoint, enc.origin)

    pairs = enc.pairs
    session = _open_session(pairs, cfg, hazard=hazard, waypoint=waypoint)
    records = [RunRecord(session.last_record, _score_fan(session, cfg))]
    for own, obstacle in pairs[1:]:
        step = step_update(session, own, [obstacle])
        records.append(RunRecord(step, _score_fan(session, cfg)))

    out = _resolve_out(args.out)
    export_run(records, out, cfg.export_format)
    span = pairs[-1][0].t - pairs[0][0].t
    print(
        f"replayed {enc.name!r}: {len(records)} steps over {span:g} s"
        f" ({session.slice_count} slices)"
    )
    print(f"wrote {out}")
    return 0


def _print_scores(result: ScoreResult) -> None:
    print(f"{'candidate':<16}{'raw':>12}{'score':>12}")
    for cand in result.scores:
        print(f"{cand.label:<16}{cand.raw:>12.6f}{cand.score:>12.6f}")
    if result.all_incompatible:
        print("note: every candidate fell below the score floor; uniform fallback")
    best = max(result.scores, key=lambda c: c.score)
    print(f"best: {best.label} (score {best.score:.6f})")


def _cmd_score(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    encounters = load_ais_csv(args.encounter, labels_path=args.labels)
    enc = _pick_encounter(encounters, args.encounter_id, args.encounter)
    waypoint = _parse_waypoint(args.waypoint, enc.origin)

    pairs = enc.pairs
    if not math.isfinite(args.at):
        raise DataError(f"--at {args.at:g} is not a finite number of seconds")
    if args.at < 0.0:
        raise DataError(f"--at {args.at:g} is before the first sample")
    cutoff = pairs[0][0].t + args.at
    upto = [pair for pair in pairs if pair[0].t <= cutoff + 1e-9]

    hazard = None
    if args.map is not None:
        hazard = load_map_geojson(args.map).framed(enc.origin, cfg.map_densify_spacing)
    session = _open_session(upto, cfg, hazard=hazard, waypoint=waypoint)
    for own, obstacle in upto[1:]:
        step_update(session, own, [obstacle])

    print(f"encounter {enc.name!r} at t+{upto[-1][0].t - pairs[0][0].t:g} s")
    _print_scores(_score_fan(session, cfg))
    return 0


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

# Fixtures the checks share with the test suite.  Three bins per threshold
# keep a joint small enough to check against the whole of it, at three
# ships too; the obstacle ships head west, north and east.
DISC3 = Discretization().with_bins(3)
OBSTACLES = (
    ShipState(0.0, 2500.0, 120.0, 4.0, math.pi),
    ShipState(0.0, 1500.0, -2000.0, 5.0, math.pi / 2),
    ShipState(0.0, -1500.0, 300.0, 7.0, 0.0),
)


def _check_inference() -> str | None:
    rng = np.random.default_rng(20240817)
    for trial in range(20):
        net, queries = random_network(rng)
        query = queries[int(rng.integers(len(queries)))]
        got = posterior(net, query).as_tuple()
        want = joint_enumerate_oracle(net, query).as_tuple()
        err = max(abs(g - w) for g, w in zip(got, want))
        if err > 1e-9:
            return f"trial {trial}: |delta|={err:.2e} on {query}"
    return None


def _check_discretization() -> str | None:
    priors, disc = IntentionPriors(), Discretization()
    for name in THRESHOLDS:
        drift = abs(float(threshold_prior_masses(priors, disc, name).sum()) - 1.0)
        if drift > 1e-12:
            return f"{name} bin masses sum to 1{drift:+.2e}"
    return None


def _check_trajectories() -> str | None:
    start = ShipState(t=0.0, x=0.0, y=0.0, sog=5.0, cog=math.radians(30.0))
    params = LosParams()
    fan = {cand.label: cand for cand in los_candidates(start, params)}

    straight = fan["straight"]
    if any(s.cog != start.cog for s in straight.states):
        return "straight candidate drifts off course"

    heading = np.array([math.cos(start.cog), math.sin(start.cog)])
    normal = np.array([-heading[1], heading[0]])
    for port_s, stbd_s in zip(fan["port_45"].states, fan["starboard_45"].states):
        offsets = np.array([[port_s.x, port_s.y], [stbd_s.x, stbd_s.y]]) @ normal
        if abs(offsets[0] + offsets[1]) > 1e-9:
            return "port/starboard fans are not mirror images"

    per_step = params.turn_rate * params.dt + 1e-12
    for cand in fan.values():
        for a, b in zip(cand.states, cand.states[1:]):
            if abs(angle_diff(b.cog, a.cog)) > per_step:
                return f"{cand.label}: turn rate limit exceeded"
    return None


def _check_dual_route() -> str | None:
    own = ShipState(t=0.0, x=0.0, y=0.0, sog=5.0, cog=0.0)
    obstacle = ShipState(t=0.0, x=1800.0, y=120.0, sog=4.0, cog=math.pi)
    session = init_session(own, [obstacle], disc=DISC3)

    net = build_intention_dbn(1, session.priors, DISC3, 1, situations=session.anchors)
    apply_measurement_evidence(net, 0, session.slice_measurements()[0])
    assert_compatible(net, 0)
    ((sa_in, pa_in),) = session.slice_carries()
    set_evidence(net, "turned_starboard_carry", sa_in)
    set_evidence(net, "turned_port_carry", pa_in)

    worst = 0.0
    for node, want in session.last_record.posterior.marginals.items():
        got = posterior(net, node).as_tuple()
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    if worst > 1e-9:
        return f"session vs single-network posterior |delta|={worst:.2e}"
    return None


def _check_retraction() -> str | None:
    own = ShipState(t=0.0, x=0.0, y=0.0, sog=6.0, cog=0.3)
    obstacle = ShipState(t=0.0, x=2500.0, y=-300.0, sog=5.0, cog=3.5)
    session = init_session(own, [obstacle])
    for k in range(1, 4):
        step_update(session, own.advanced(30.0 * k), [obstacle.advanced(30.0 * k)])
    before = session.state_hash()
    score_candidates(session, los_candidates(session.own_state, LosParams()))
    if session.state_hash() != before:
        return "belief state changed across scoring"
    return None


def _check_grounding_index() -> str | None:
    rng = np.random.default_rng(20240819)
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, 4000))
    radius = 1500.0 + rng.uniform(-300.0, 300.0, theta.size)  # a jagged island
    ring = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    pmap = PolygonMap(rings=(np.vstack((ring, ring[:1])),))
    disc, geom = Discretization(), GeometryParams()
    reach = max(disc.ground_side.upper, disc.ground_front.upper)
    half = geom.front_half_angle
    for trial in range(300):
        x, y = rng.uniform(-2500.0, 2500.0, 2)
        chi = float(rng.uniform(0.0, 2.0 * math.pi))
        indexed = grounding_measurements(ShipState(0.0, x, y, 5.0, chi), pmap, geom, reach)
        brute = [
            sector_ground_distance(x, y, chi, pmap, lo, hi)
            for lo, hi in ((chi - math.pi, chi - half), (chi + half, chi + math.pi),
                           (chi - half, chi + half))
        ]
        for got, want, name in zip(indexed, brute, ("ground_side", "ground_side", "ground_front")):
            channel = getattr(disc, name)
            if real_to_bin(got, channel) != real_to_bin(want, channel):
                return f"trial {trial}: {name} bin of {got!r} vs brute {want!r}"
    return None


def _check_lumped_scoring() -> str | None:
    own = ShipState(t=0.0, x=0.0, y=0.0, sog=5.0, cog=0.0)
    session = init_session(own, OBSTACLES[:2], disc=DISC3)
    layout = session.layout
    dists = _virtual_root_dists(layout, session.last_record.posterior)
    full = functools.reduce(np.multiply.outer, [dists[root] for root in layout.f_roots])
    every = [np.arange(card) for card in layout.cards]
    # Every course/speed change for every candidate: both branches of course_held.
    for cand in los_candidates(own, LosParams()):
        states = measure_candidate(session, cand).as_states()
        for cic, cis in itertools.product(range(3), repeat=2):
            states.update(meas_course_change=cic, meas_speed_change=cis)
            observed = _observed(states, 0, 0)
            held = course_held(cic, cis)
            # The oracle: every node, the coupled ones included, looked up
            # on the whole joint.
            f_side = _constraint(layout, _fold(layout, observed, every))
            f_side = np.broadcast_to(f_side, layout.cards)
            labels = layout.lumps(observed)
            reps = [_firsts(label) for label in labels]
            lumped = _constraint(layout, _fold(layout, observed, reps))
            lumped = np.broadcast_to(lumped, [len(r) for r in reps])[np.ix_(*labels)]
            if not np.array_equal(lumped, f_side):
                return f"{cand.label}, course held {held}: the lumped fold differs"
            delta = abs(_lumped(layout, dists, observed)[0] - float((full * f_side).sum()))
            if delta > 1e-12:
                return f"{cand.label}, course held {held}: lumped |delta z_f|={delta:.2e}"
    return None


_CHECKS = (
    ("exact inference matches enumeration", _check_inference),
    ("threshold bin masses are normalized", _check_discretization),
    ("candidate fan geometry", _check_trajectories),
    ("session matches single-network posterior", _check_dual_route),
    ("scoring leaves session state untouched", _check_retraction),
    ("indexed grounding matches the brute scan", _check_grounding_index),
    ("lumped fold and scoring match the full-joint fold", _check_lumped_scoring),
)


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _CHECKS:
        detail = check()
        if detail is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; keep 2 reserved for contradictions."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shipintent",
        description="Infer ship intentions from AIS tracks and score maneuvers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "extract-priors", help="fit threshold priors from a labeled corpus"
    )
    p.add_argument("corpus", help="AIS corpus CSV")
    p.add_argument("map", help="coastline GeoJSON")
    p.add_argument("-o", "--out", required=True, help="output config path")
    p.add_argument("--config", help="base configuration to inherit from")
    p.add_argument("--labels", help="label sidecar (default: <corpus>.labels.csv)")
    p.set_defaults(func=_cmd_extract_priors)

    p = sub.add_parser("replay", help="replay an encounter and export beliefs")
    p.add_argument("encounter", help="encounter CSV")
    p.add_argument("map", help="coastline GeoJSON")
    p.add_argument("config", help="run configuration")
    p.add_argument("-o", "--out", required=True, help="output table path")
    p.add_argument("--encounter-id", help="select one encounter from the file")
    p.add_argument("--labels", help="label sidecar path")
    p.add_argument("--waypoint", metavar="LAT,LON", help="planned track waypoint")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("score", help="score the maneuver fan at a point in time")
    p.add_argument("encounter", help="encounter CSV")
    p.add_argument("config", help="run configuration")
    p.add_argument(
        "--at", type=float, required=True, help="seconds after the first sample"
    )
    p.add_argument("--encounter-id", help="select one encounter from the file")
    p.add_argument("--labels", help="label sidecar path")
    p.add_argument("--waypoint", metavar="LAT,LON", help="planned track waypoint")
    p.add_argument("--map", metavar="GEOJSON", help="coastline GeoJSON (default: no hazards)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("selftest", help="run the built-in checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            return args.func(args)
    except ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
