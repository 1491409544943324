"""Exact inference for discrete Bayesian networks.

Factors are dense numpy tables over named discrete variables.  Deterministic
CPTs may be predicate-backed: the 0/1 table is generated from a boolean
function of the parent states the first time anything touches it, so large
deterministic nodes cost nothing until a query actually needs them.

Queries run variable elimination with a greedy min-fill ordering (ties broken
by lowest variable id) after hard evidence has been folded into the factor
tables.  A domain-propagation pass turns values forced by deterministic
factors into additional hard evidence, which keeps elimination cheap on
networks that are mostly indicator tables.  All arithmetic is plain float64
probability space; priors are expected to keep mass away from underflow.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np


class BnError(Exception):
    """Base class for inference errors."""


class StructureError(BnError):
    """Malformed network: bad cardinality, unknown variable, cycle, ..."""


class EvidenceError(BnError):
    """Evidence or likelihood that does not fit the variable it targets."""


class ContradictionError(BnError):
    """The evidence has zero probability under the model."""

    def __init__(self, message: str, diagnosis: str | None = None):
        super().__init__(message)
        self.diagnosis = diagnosis


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with a fixed tuple of state labels."""

    id: str
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.states) < 2:
            raise StructureError(f"variable {self.id!r} needs >= 2 states")
        if len(set(self.states)) != len(self.states):
            raise StructureError(f"variable {self.id!r} has duplicate states")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def index_of(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise EvidenceError(f"{state!r} is not a state of {self.id!r}") from None


BOOL_STATES = ("false", "true")


def boolean(var_id: str) -> Variable:
    return Variable(var_id, BOOL_STATES)


def binned(var_id: str, bins: int) -> Variable:
    return Variable(var_id, tuple(f"b{i}" for i in range(bins)))


@functools.lru_cache(maxsize=1024)
def truth_table(predicate: Callable[..., bool], cards: tuple[int, ...]) -> np.ndarray:
    """Read-only boolean table of ``predicate`` over every parent-state combination.

    Cached per (predicate, parent cardinalities) and shared by every caller,
    so the sliced network's CPTs and the session engine's lookups read the
    same table.  The cache is bounded because ad-hoc predicates (a fresh
    lambda per network) would otherwise pile up; it holds every model table
    at up to three ships for several discretizations at once.
    """
    table = np.empty(cards, dtype=bool)
    for idx in itertools.product(*(range(c) for c in cards)):
        table[idx] = bool(predicate(*idx))
    table.flags.writeable = False
    return table


class Factor:
    """A non-negative table over an ordered scope of variable ids."""

    __slots__ = ("scope", "cards", "kind", "_table", "_build")

    def __init__(
        self,
        scope: Sequence[str],
        cards: Sequence[int],
        table: np.ndarray | None = None,
        build: Callable[[], np.ndarray] | None = None,
        kind: str = "table",
    ):
        if len(scope) != len(set(scope)):
            raise StructureError(f"factor scope has repeats: {scope}")
        if len(scope) != len(cards):
            raise StructureError("scope/cardinality length mismatch")
        if table is None and build is None:
            raise StructureError("factor needs a table or a builder")
        self.scope = tuple(scope)
        self.cards = tuple(int(c) for c in cards)
        self.kind = kind
        self._build = build
        if table is not None:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != self.cards:
                raise StructureError(
                    f"table shape {table.shape} != cards {self.cards} for scope {self.scope}"
                )
            self._table = table
        else:
            self._table = None

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            table = np.asarray(self._build(), dtype=np.float64)
            if table.shape != self.cards:
                raise StructureError("builder produced a wrongly shaped table")
            self._table = table
        return self._table

    @classmethod
    def cpt(cls, child: Variable, parents: Sequence[Variable], table: np.ndarray) -> "Factor":
        scope = [p.id for p in parents] + [child.id]
        cards = [p.cardinality for p in parents] + [child.cardinality]
        return cls(scope, cards, table=np.asarray(table, dtype=np.float64), kind="cpt")

    @classmethod
    def predicate_cpt(
        cls,
        child: Variable,
        parents: Sequence[Variable],
        predicate: Callable[..., bool],
    ) -> "Factor":
        """Deterministic binary CPT generated lazily from ``predicate``.

        ``predicate`` receives one state index per parent, in scope order, and
        returns the truth of the child.  Entries are exactly 0.0 or 1.0.
        """
        if child.states != BOOL_STATES:
            raise StructureError(f"predicate child {child.id!r} must be boolean")
        scope = [p.id for p in parents] + [child.id]
        cards = tuple(p.cardinality for p in parents) + (2,)

        def build() -> np.ndarray:
            truth = truth_table(predicate, cards[:-1])
            return np.stack((~truth, truth), axis=-1).astype(np.float64)

        return cls(scope, cards, build=build, kind="predicate")

    @classmethod
    def unary(cls, var: Variable, values: Iterable[float], kind: str = "table") -> "Factor":
        vec = np.asarray(list(values), dtype=np.float64)
        if vec.shape != (var.cardinality,):
            raise StructureError(f"unary factor for {var.id!r} has wrong length")
        return cls((var.id,), (var.cardinality,), table=vec, kind=kind)

    @classmethod
    def scalar(cls, value: float) -> "Factor":
        return cls((), (), table=np.asarray(float(value)), kind="scalar")

    def reduce(self, var_id: str, state: int) -> "Factor":
        """Slice out ``var_id == state``; the variable leaves the scope."""
        if var_id not in self.scope:
            raise StructureError(f"{var_id!r} not in scope {self.scope}")
        axis = self.scope.index(var_id)
        if not 0 <= state < self.cards[axis]:
            raise EvidenceError(f"state {state} out of range for {var_id!r}")
        scope = self.scope[:axis] + self.scope[axis + 1 :]
        cards = self.cards[:axis] + self.cards[axis + 1 :]
        return Factor(scope, cards, table=np.take(self.table, state, axis=axis), kind="derived")

    def marginalize(self, var_id: str) -> "Factor":
        """Sum out one variable."""
        if var_id not in self.scope:
            raise StructureError(f"{var_id!r} not in scope {self.scope}")
        axis = self.scope.index(var_id)
        scope = self.scope[:axis] + self.scope[axis + 1 :]
        cards = self.cards[:axis] + self.cards[axis + 1 :]
        return Factor(scope, cards, table=self.table.sum(axis=axis), kind="derived")

    def product(self, other: "Factor") -> "Factor":
        """Pointwise product over the union scope (numpy broadcasting)."""
        scope = list(self.scope)
        cards = list(self.cards)
        for var, card in zip(other.scope, other.cards):
            if var in self.scope:
                if self.cards[self.scope.index(var)] != card:
                    raise StructureError(f"cardinality clash on {var!r}")
            else:
                scope.append(var)
                cards.append(card)
        a = self.table.reshape(self.cards + (1,) * (len(scope) - len(self.scope)))
        order = [other.scope.index(v) for v in scope if v in other.scope]
        b = np.transpose(other.table, order) if other.scope else other.table
        b = b.reshape([cards[i] if scope[i] in other.scope else 1 for i in range(len(scope))])
        return Factor(scope, cards, table=a * b, kind="derived")

    def normalized(self) -> "Factor":
        total = float(self.table.sum())
        if total <= 0.0:
            raise ContradictionError("cannot normalize an all-zero factor")
        return Factor(self.scope, self.cards, table=self.table / total, kind="derived")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Factor(scope={self.scope}, cards={self.cards}, kind={self.kind})"


def multiply_all(factors: Sequence[Factor]) -> Factor:
    if not factors:
        return Factor.scalar(1.0)
    out = factors[0]
    for f in factors[1:]:
        out = out.product(f)
    return out


@dataclass(frozen=True)
class Distribution:
    """A normalized marginal over one variable."""

    variable: str
    states: tuple[str, ...]
    probs: np.ndarray

    def __getitem__(self, key: str | int) -> float:
        if isinstance(key, str):
            key = self.states.index(key)
        return float(self.probs[key])

    @property
    def p_true(self) -> float:
        return self[self.states.index("true")]

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


class Network:
    """A directed discrete network: variables, one CPT per variable, evidence.

    Hard evidence maps variable id -> state index.  Virtual evidence maps
    variable id -> likelihood vector (entries in [0, 1], max entry > 0) that
    multiplies into the joint; setting either kind twice overwrites.
    """

    def __init__(self) -> None:
        self.variables: dict[str, Variable] = {}
        self.parents: dict[str, tuple[str, ...]] = {}
        self.cpts: dict[str, Factor] = {}
        self.evidence: dict[str, int] = {}
        self.virtual: dict[str, np.ndarray] = {}
        self._order: list[str] | None = None

    def add_variable(self, var: Variable) -> Variable:
        if var.id in self.variables:
            raise StructureError(f"duplicate variable {var.id!r}")
        self.variables[var.id] = var
        self._order = None
        return var

    def add_cpt(self, factor: Factor) -> None:
        child = factor.scope[-1]
        if child not in self.variables:
            raise StructureError(f"CPT child {child!r} is not a variable")
        if child in self.cpts:
            raise StructureError(f"{child!r} already has a CPT")
        for var, card in zip(factor.scope, factor.cards):
            if var not in self.variables:
                raise StructureError(f"CPT scope var {var!r} is not a variable")
            if self.variables[var].cardinality != card:
                raise StructureError(f"cardinality clash on {var!r}")
        self.cpts[child] = factor
        self.parents[child] = factor.scope[:-1]
        self._order = None

    def add_prior(self, var: Variable, probs: Iterable[float]) -> None:
        self.add_variable(var)
        self.add_cpt(Factor.unary(var, probs, kind="cpt"))

    def topological_order(self) -> list[str]:
        """Parents-before-children order; raises StructureError on a cycle."""
        if self._order is not None:
            return self._order
        missing = set(self.variables) - set(self.cpts)
        if missing:
            raise StructureError(f"variables without a CPT: {sorted(missing)}")
        indeg = {v: len(self.parents[v]) for v in self.variables}
        children: dict[str, list[str]] = {v: [] for v in self.variables}
        for child, pars in self.parents.items():
            for p in pars:
                children[p].append(child)
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.variables):
            raise StructureError("network contains a directed cycle")
        self._order = order
        return order

    def copy(self) -> "Network":
        """Structural share, independent evidence."""
        out = Network()
        out.variables = dict(self.variables)
        out.parents = dict(self.parents)
        out.cpts = dict(self.cpts)
        out.evidence = dict(self.evidence)
        out.virtual = {k: v.copy() for k, v in self.virtual.items()}
        out._order = self._order
        return out

    def validate_tables(self, tol: float = 1e-9) -> None:
        """Materialize every CPT and check normalization / determinism."""
        for child, factor in self.cpts.items():
            table = factor.table
            if np.any(table < 0):
                raise StructureError(f"negative entries in CPT of {child!r}")
            sums = table.sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > tol):
                raise StructureError(f"CPT of {child!r} does not normalize")
            if factor.kind == "predicate" and not np.all((table == 0.0) | (table == 1.0)):
                raise StructureError(f"predicate CPT of {child!r} is not 0/1")

    def ancestors_of(self, var_ids: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        stack = list(var_ids)
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.parents.get(v, ()))
        return seen


def set_evidence(net: Network, var_id: str, state: int | str) -> Network:
    if var_id not in net.variables:
        raise EvidenceError(f"unknown variable {var_id!r}")
    var = net.variables[var_id]
    if isinstance(state, str):
        state = var.index_of(state)
    if not 0 <= state < var.cardinality:
        raise EvidenceError(f"state {state} out of range for {var_id!r}")
    net.evidence[var_id] = int(state)
    return net


def set_virtual_evidence(net: Network, var_id: str, likelihood: Iterable[float]) -> Network:
    if var_id not in net.variables:
        raise EvidenceError(f"unknown variable {var_id!r}")
    var = net.variables[var_id]
    vec = np.asarray(list(likelihood), dtype=np.float64)
    if vec.shape != (var.cardinality,):
        raise EvidenceError(f"likelihood length != cardinality of {var_id!r}")
    if np.any(vec < 0.0) or np.any(vec > 1.0):
        raise EvidenceError("likelihood entries must lie in [0, 1]")
    if vec.max() <= 0.0:
        raise EvidenceError("likelihood must have a positive entry")
    net.virtual[var_id] = vec
    return net


def clear_findings(net: Network) -> Network:
    net.evidence.clear()
    net.virtual.clear()
    return net


# ---------------------------------------------------------------------------
# Variable elimination


def _min_fill_order(scopes: list[tuple[str, ...]], eliminate: set[str]) -> list[str]:
    """Greedy min-fill ordering; ties broken by lowest variable id."""
    adjacency: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)
    order: list[str] = []
    remaining = {v for v in eliminate if v in adjacency}
    while remaining:
        best: tuple[int, str] | None = None
        for v in sorted(remaining):
            neigh = adjacency[v] & (set(adjacency) - {v})
            fill = 0
            neigh_list = sorted(neigh)
            for i, a in enumerate(neigh_list):
                for b in neigh_list[i + 1 :]:
                    if b not in adjacency[a]:
                        fill += 1
            if best is None or fill < best[0]:
                best = (fill, v)
        v = best[1]
        order.append(v)
        neigh = sorted(adjacency[v])
        for i, a in enumerate(neigh):
            for b in neigh[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
        for a in neigh:
            adjacency[a].discard(v)
        del adjacency[v]
        remaining.discard(v)
    return order


def eliminate_to(
    factors: Sequence[Factor],
    keep: set[str],
    order: Sequence[str] | None = None,
) -> list[Factor]:
    """Sum out every scope variable not in ``keep``; returns surviving factors.

    Scalar factors are folded into a single running constant so zero-mass
    evidence still surfaces in the result.
    """
    work = list(factors)
    present = {v for f in work for v in f.scope}
    to_go = present - keep
    if order is None:
        order = _min_fill_order([f.scope for f in work], to_go)
    else:
        order = [v for v in order if v in to_go]
        if set(order) != to_go:
            raise StructureError("elimination order does not cover the variables")
    for var in order:
        bucket = [f for f in work if var in f.scope]
        work = [f for f in work if var not in f.scope]
        if not bucket:
            continue
        work.append(multiply_all(bucket).marginalize(var))
    const = 1.0
    out: list[Factor] = []
    for f in work:
        if f.scope == ():
            const *= float(f.table)
        else:
            out.append(f)
    if const != 1.0 or not out:
        out.append(Factor.scalar(const))
    return out


def _reduced_factors(net: Network, relevant: set[str]) -> tuple[list[Factor], dict[str, int]]:
    """CPTs and likelihood vectors over ``relevant``, with hard evidence folded
    in and deterministically forced values promoted to extra evidence."""
    evidence = dict(net.evidence)

    def reduce_all() -> list[Factor]:
        factors = []
        for child in relevant:
            f = net.cpts[child]
            for var in f.scope:
                if var in evidence:
                    f = f.reduce(var, evidence[var])
            factors.append(f)
        for var, vec in net.virtual.items():
            if var not in relevant:
                continue
            if var in evidence:
                factors.append(Factor.scalar(float(vec[evidence[var]])))
            else:
                factors.append(Factor((var,), (len(vec),), table=vec, kind="virtual"))
        return factors

    factors = reduce_all()
    # Domain propagation: a factor that permits exactly one state of some
    # variable forces it; zero permitted states is a contradiction.
    changed = True
    while changed:
        changed = False
        for f in factors:
            table = f.table
            for axis, var in enumerate(f.scope):
                other = tuple(i for i in range(len(f.scope)) if i != axis)
                feasible = table.max(axis=other) > 0.0 if other else table > 0.0
                count = int(feasible.sum())
                if count == 0:
                    raise ContradictionError(
                        f"evidence leaves no feasible state for {var!r}", diagnosis=var
                    )
                if count == 1 and var not in evidence:
                    evidence[var] = int(np.argmax(feasible))
                    changed = True
        if changed:
            factors = reduce_all()
    return factors, evidence


def posterior(
    net: Network,
    query: str,
    *,
    elimination_order: Sequence[str] | None = None,
) -> Distribution:
    """Marginal of ``query`` given the network's current findings."""
    if query not in net.variables:
        raise StructureError(f"unknown query variable {query!r}")
    net.topological_order()  # validates completeness and acyclicity
    var = net.variables[query]
    targets = {query, *net.evidence, *net.virtual}
    relevant = net.ancestors_of(t for t in targets if t in net.variables)
    factors, evidence = _reduced_factors(net, relevant)
    if query in evidence:
        # Point mass on the observed state, but only if the evidence as a
        # whole has support: eliminate everything and check the mass.
        mass = multiply_all(eliminate_to(factors, set()))
        if float(mass.table) <= 0.0:
            raise ContradictionError(
                f"evidence has zero probability (while querying {query!r})",
                diagnosis=query,
            )
        probs = np.zeros(var.cardinality)
        probs[evidence[query]] = 1.0
        return Distribution(query, var.states, probs)
    remaining = eliminate_to(factors, {query}, order=elimination_order)
    joined = multiply_all(remaining)
    if joined.scope == ():
        raise StructureError(f"query {query!r} vanished during elimination")
    vec = joined.table
    total = float(vec.sum())
    if total <= 0.0:
        raise ContradictionError(
            f"evidence has zero probability (while querying {query!r})", diagnosis=query
        )
    return Distribution(query, var.states, vec / total)


def joint_enumerate_oracle(net: Network, query: str, cap: int = 10_000_000) -> Distribution:
    """Brute-force marginal by materializing the full joint table.

    Deliberately independent of the elimination path: no pruning, no evidence
    reduction, no ordering heuristics.  Refuses joints larger than ``cap``.
    """
    order = net.topological_order()
    if query not in net.variables:
        raise StructureError(f"unknown query variable {query!r}")
    cards = [net.variables[v].cardinality for v in order]
    size = 1
    for c in cards:
        size *= c
    if size > cap:
        raise BnError(f"joint of {size} entries exceeds cap {cap}")
    axis_of = {v: i for i, v in enumerate(order)}

    def spread(vec_or_table: np.ndarray, scope: Sequence[str]) -> np.ndarray:
        shape = [1] * len(order)
        perm = sorted(range(len(scope)), key=lambda i: axis_of[scope[i]])
        arranged = np.transpose(vec_or_table, perm)
        for v in scope:
            shape[axis_of[v]] = net.variables[v].cardinality
        return arranged.reshape(shape)

    joint = np.ones(cards)
    for child, factor in net.cpts.items():
        joint = joint * spread(factor.table, factor.scope)
    for v, state in net.evidence.items():
        indicator = np.zeros(net.variables[v].cardinality)
        indicator[state] = 1.0
        joint = joint * spread(indicator, (v,))
    for v, vec in net.virtual.items():
        joint = joint * spread(vec, (v,))
    axes = tuple(i for v, i in axis_of.items() if v != query)
    vec = joint.sum(axis=axes)
    total = float(vec.sum())
    if total <= 0.0:
        raise ContradictionError("evidence has zero probability", diagnosis=query)
    return Distribution(query, net.variables[query].states, vec / total)


def random_network(
    rng: np.random.Generator,
    max_vars: int = 8,
    max_card: int = 4,
    joint_cap: int | None = None,
) -> tuple[Network, list[str]]:
    """A random DAG with random CPTs plus random hard and virtual evidence.

    Returns the network and the ids of the non-hard-evidence variables
    (valid query targets).  The variable count is redrawn until the joint
    has at most ``joint_cap`` cells.
    """
    while True:
        n = int(rng.integers(3, max_vars + 1))
        cards = rng.integers(2, max_card + 1, size=n)
        if joint_cap is None or int(np.prod(cards.astype(np.int64))) <= joint_cap:
            break
    net = Network()
    variables = []
    for i in range(n):
        var = binned(f"v{i}", int(cards[i]))
        n_parents = min(i, int(rng.integers(0, 4)))
        picked = rng.choice(i, size=n_parents, replace=False) if n_parents else []
        parents = [variables[int(j)] for j in sorted(picked)]
        table = rng.random([p.cardinality for p in parents] + [var.cardinality]) + 0.05
        table /= table.sum(axis=-1, keepdims=True)
        net.add_variable(var)
        net.add_cpt(Factor.cpt(var, parents, table))
        variables.append(var)
    hard_idx, soft_idx = (int(j) for j in rng.choice(n, size=2, replace=False))
    hard = variables[hard_idx]
    set_evidence(net, hard.id, int(rng.integers(hard.cardinality)))
    soft = variables[soft_idx]
    set_virtual_evidence(net, soft.id, 0.1 + 0.9 * rng.random(soft.cardinality))
    return net, [v.id for v in variables if v.id != hard.id]
