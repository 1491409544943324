"""Dense reference for the session kernel.

The joint over the collision-avoidance roots is materialised as a float64
``weight * joint`` array, every node is evaluated by broadcasting index
arrays over it, and every marginal, node expectation and candidate score is
one full reduction.  That is slow and needs ~10x the memory of the runtime
kernel, but it is the plain reading of the model, so the tests compare the
runtime's chunked contractions against it.

The reference rebuilds a session's belief from its public slice history
(measurements and latch carries per slice), so it shares nothing with the
session's cached messages.
"""

from __future__ import annotations

import numpy as np

from shipintent.bn import ContradictionError
from shipintent.nodes import ship
from shipintent.runtime import SCORE_FLOOR, _virtual_root_dists, measure_candidate

_SKIP_NODES = {"ground_safe_side", "ground_safe_front", "ground_safe", "compatible"}


def dense_weight(layout, dists) -> np.ndarray:
    """Outer product of per-root distributions over the layout joint."""
    weight = np.array(1.0)
    for root in layout.f_roots:
        weight = weight[..., None] * dists[root]
    return weight


def fold(layout, meas_states, sa_in, pa_in) -> dict:
    """One slice's boolean root-space indicators, by broadcast table indexing."""
    rank = len(layout.f_roots)
    values: dict[str, object] = dict(meas_states)
    for j, root in enumerate(layout.f_roots):
        values[root] = np.arange(layout.cards[j]).reshape((1,) * j + (-1,) + (1,) * (rank - 1 - j))
    values["turned_starboard_prev"] = sa_in
    values["turned_port_prev"] = pa_in
    # uint8, not bool: gathered node values feed back in as integer indices.
    tables = {name: table.astype(np.uint8) for name, table in layout.tables.items()}

    bins = len(layout.prior_vec["safe_ground_side"])
    v_side = v_front = None
    for spec in layout.specs:
        table = tables[spec.node_id]
        if spec.node_id == "ground_safe_side":
            v_side = table[
                values["meas_ground_sb"],
                values["meas_ground_ps"],
                np.arange(bins),
                values["meas_course_change"],
            ]
            continue
        if spec.node_id == "ground_safe_front":
            v_front = table[
                values["meas_ground_front"],
                np.arange(len(layout.prior_vec["safe_ground_front"])),
                values["meas_course_change"],
            ]
            continue
        if spec.node_id in _SKIP_NODES or spec.node_id.startswith("ship_compatible_"):
            continue
        values[spec.node_id] = table[tuple(values[p] for p in spec.parents)]

    f_side = np.array(True)
    node_arrays: dict[str, np.ndarray] = {}
    for i in range(1, layout.n_ships + 1):
        colav = np.asarray(values[ship("colav_ok", i)], dtype=bool)
        nav_ok = np.asarray(values[ship("nav_maneuver_ok", i)], dtype=bool)
        f_side = f_side & (colav | nav_ok)
        node_arrays[ship("colav_ok", i)] = colav
        node_arrays[ship("nav_maneuver_ok", i)] = nav_ok
        node_arrays[ship("evasive_ok", i)] = np.asarray(values[ship("evasive_ok", i)], dtype=bool)
    return {
        "f_side": np.broadcast_to(np.asarray(f_side, dtype=bool), layout.cards),
        "v_side": np.asarray(v_side, dtype=bool),
        "v_front": np.asarray(v_front, dtype=bool),
        "nav_maneuver": bool(values["nav_maneuver"]),
        "turned_sb": int(values["turned_starboard"]),
        "turned_port": int(values["turned_port"]),
        "node_arrays": node_arrays,
    }


def bundle(layout, frozen_f, frozen_vs, frozen_vf, live) -> tuple[dict, dict]:
    """Posterior marginals and live-node probabilities from the dense joint."""
    weight = dense_weight(layout, layout.prior_vec)
    joint = frozen_f & live["f_side"]
    wm = weight * joint
    z_f = float(wm.sum())

    pi_s = layout.prior_vec["safe_ground_side"]
    pi_f = layout.prior_vec["safe_ground_front"]
    u_s = pi_s * (frozen_vs & live["v_side"])
    u_f = pi_f * (frozen_vf & live["v_front"])
    z_s, z_fr = float(u_s.sum()), float(u_f.sum())

    p_u = float(layout.prior_vec["unmodeled"][1])
    p_g = float(layout.prior_vec["ground_intent"][1])
    rest = 1.0 - p_u
    a_u = p_u
    a_g = rest * z_f * p_g
    a_s = rest * z_f * (1.0 - p_g) * z_s * z_fr
    total = a_u + a_g + a_s
    if total <= 0.0:
        raise ContradictionError("no intention assignment explains the observed behaviour")

    marg: dict[str, tuple[float, ...]] = {}
    f_weight = rest * (p_g + (1.0 - p_g) * z_s * z_fr)
    for j, root in enumerate(layout.f_roots):
        m_root = wm.sum(axis=tuple(k for k in range(len(layout.f_roots)) if k != j))
        marg[root] = tuple(((a_u * layout.prior_vec[root] + f_weight * m_root) / total).tolist())
    vec_s = ((a_u + a_g) * pi_s + rest * z_f * (1.0 - p_g) * z_fr * u_s) / total
    vec_f = ((a_u + a_g) * pi_f + rest * z_f * (1.0 - p_g) * z_s * u_f) / total
    marg["safe_ground_side"] = tuple(vec_s.tolist())
    marg["safe_ground_front"] = tuple(vec_f.tolist())
    g_true = p_g * (p_u + rest * z_f)
    g_false = (1.0 - p_g) * (p_u + rest * z_f * z_s * z_fr)
    marg["ground_intent"] = (g_false / total, g_true / total)
    marg["unmodeled"] = ((a_g + a_s) / total, a_u / total)

    node_probs: dict[str, float] = {}
    post_weight = a_g + a_s
    for name, arr in live["node_arrays"].items():
        e_prior = float((weight * arr).sum())
        e_post = float((wm * arr).sum()) / z_f if z_f > 0.0 else 0.0
        node_probs[name] = (a_u * e_prior + post_weight * e_post) / total
    s_live = float((pi_s * live["v_side"]).sum())
    f_live = float((pi_f * live["v_front"]).sum())
    node_probs["ground_safe_side"] = ((a_u + a_g) * s_live + a_s) / total
    node_probs["ground_safe_front"] = ((a_u + a_g) * f_live + a_s) / total
    node_probs["nav_maneuver"] = float(live["nav_maneuver"])
    node_probs["turned_starboard"] = float(live["turned_sb"])
    node_probs["turned_port"] = float(live["turned_port"])
    return marg, node_probs


def session_beliefs(session) -> tuple[dict, dict]:
    """Dense posteriors and node probabilities for a session's current step."""
    layout = session.layout
    folds = [
        fold(layout, meas.as_states(), sa, pa)
        for meas, (sa, pa) in zip(session.slice_measurements(), session.slice_carries())
    ]
    frozen_f = np.ones(layout.cards, dtype=bool)
    frozen_vs = np.ones(len(layout.prior_vec["safe_ground_side"]), dtype=bool)
    frozen_vf = np.ones(len(layout.prior_vec["safe_ground_front"]), dtype=bool)
    for msg in folds[:-1]:
        frozen_f = frozen_f & msg["f_side"]
        frozen_vs = frozen_vs & msg["v_side"]
        frozen_vf = frozen_vf & msg["v_front"]
    return bundle(layout, frozen_f, frozen_vs, frozen_vf, folds[-1])


def candidate_raws(session, candidates, *, lookahead=None) -> list[float]:
    """Dense raw compatibility score of each candidate, floor applied."""
    layout = session.layout
    record = session.last_record
    dists = _virtual_root_dists(layout, record.posterior)
    weight = dense_weight(layout, dists)
    rho_u = float(dists["unmodeled"][1])
    rho_g = float(dists["ground_intent"][1])
    sa = int(record.node_probs["turned_starboard"])
    pa = int(record.node_probs["turned_port"])
    raws = []
    for cand in candidates:
        meas = measure_candidate(session, cand, lookahead=lookahead)
        msg = fold(layout, meas.as_states(), sa, pa)
        z_f = float((weight * msg["f_side"]).sum())
        z_s = float((dists["safe_ground_side"] * msg["v_side"]).sum())
        z_fr = float((dists["safe_ground_front"] * msg["v_front"]).sum())
        raw = rho_u + (1.0 - rho_u) * z_f * (rho_g + (1.0 - rho_g) * z_s * z_fr)
        raws.append(0.0 if raw < SCORE_FLOOR else raw)
    return raws

