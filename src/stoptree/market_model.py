"""Finite event trees: filtration structure, node processes, stopping times, rewards.

A tree node at time t stands for one atom of the time-t information partition,
so "a value per node" is exactly an adapted process and "a set of nodes cutting
every path once" is exactly a stopping rule. All solvers in this package reduce
to sums and maxima over this structure; with dyadic edge probabilities and
dyadic payoffs every arithmetic step is exact in binary floating point.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

EPS_PROB = 1e-12


class ModelValidationError(ValueError):
    """A tree spec or process violates a structural invariant."""


class CapExceededError(RuntimeError):
    """An enumeration or nesting budget was exhausted.

    ``count`` carries the offending size when it is known up front.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class InfeasibleError(ValueError):
    """The requested instance has an empty feasible set (e.g. refraction gaps
    that do not fit into the horizon)."""


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    time: int
    parent: str | None
    children: tuple[tuple[str, float], ...]


class TreeModel:
    """A finite rooted event tree with per-edge transition probabilities.

    Immutable after construction and safe to share across solver invocations.
    Children are kept in declared order; every traversal in this package is
    deterministic because of that.
    """

    def __init__(self, horizon: int, nodes: Mapping[str, Node], root: str):
        self.horizon = int(horizon)
        self.root = root
        self._nodes: dict[str, Node] = dict(nodes)
        self._order: tuple[str, ...] = self._validate()
        by_time: dict[int, list[str]] = {}
        for nid in self._order:
            by_time.setdefault(self._nodes[nid].time, []).append(nid)
        self._by_time = {t: tuple(ids) for t, ids in by_time.items()}
        self._fingerprint: str | None = None

    # -- structure queries ------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> tuple[str, ...]:
        """All node ids in preorder (root first)."""
        return self._order

    def nodes_at_time(self, t: int) -> tuple[str, ...]:
        return self._by_time.get(t, ())

    def time(self, node_id: str) -> int:
        return self.node(node_id).time

    def children(self, node_id: str) -> tuple[tuple[str, float], ...]:
        return self.node(node_id).children

    def is_leaf(self, node_id: str) -> bool:
        return not self.node(node_id).children

    def path_to(self, node_id: str) -> tuple[str, ...]:
        """Root-to-node id sequence; entry k sits at time k."""
        path = []
        cur: str | None = node_id
        while cur is not None:
            path.append(cur)
            cur = self.node(cur).parent
        path.reverse()
        return tuple(path)

    def subtree_ids(self, node_id: str) -> Iterator[str]:
        """Preorder iteration over the subtree rooted at ``node_id`` (inclusive)."""
        yield from self._walk_preorder(node_id)

    def leaves_below(self, node_id: str) -> Iterator[str]:
        for nid in self._walk_preorder(node_id):
            if not self._nodes[nid].children:
                yield nid

    def leaf_paths(
        self, start: str, stop_sets: Sequence[frozenset[str]] = ()
    ) -> Iterator[tuple[str, tuple[str, ...], float, tuple[int | None, ...]]]:
        """One preorder walk below ``start``: per leaf, in ``leaves_below`` order,
        ``(leaf, root path, P(leaf | start), times)``, where ``times`` holds the
        time of the first node of each stop set on the root path (``None`` if
        there is none). The weight is multiplied top-down, as in ``_validate``.
        """
        path = list(self.path_to(start))[:-1]
        times = tuple(next((t for t, nid in enumerate(path) if nid in s), None) for s in stop_sets)
        stack = [(start, 1.0, times)]
        while stack:
            nid, p, times = stack.pop()
            node = self._nodes[nid]
            del path[node.time:]
            path.append(nid)
            if None in times:
                times = tuple(node.time if ti is None and nid in s else ti
                              for ti, s in zip(times, stop_sets))
            if not node.children:
                yield nid, tuple(path), p, times
            for cid, pc in reversed(node.children):
                stack.append((cid, p * pc, times))

    def edge_prob(self, parent_id: str, child_id: str) -> float:
        for cid, p in self.children(parent_id):
            if cid == child_id:
                return p
        raise KeyError(f"{child_id!r} is not a child of {parent_id!r}")

    # -- serialization ----------------------------------------------------

    def to_spec(self) -> dict:
        """The plain-dict form accepted by :func:`build_tree_from_spec`."""
        rows = []
        for nid in self._order:
            node = self._nodes[nid]
            row: dict[str, object] = {"id": node.id, "time": node.time}
            if node.parent is not None:
                row["parent"] = node.parent
                row["prob"] = self.edge_prob(node.parent, nid)
            rows.append(row)
        return {"horizon": self.horizon, "nodes": rows}

    def fingerprint(self) -> str:
        """sha256 of the canonical spec; used to pin certification instances."""
        if self._fingerprint is None:
            spec = self.to_spec()
            for row in spec["nodes"]:
                if "prob" in row:
                    row["prob"] = repr(row["prob"])
            blob = json.dumps(spec, sort_keys=True).encode()
            self._fingerprint = hashlib.sha256(blob).hexdigest()
        return self._fingerprint

    # -- internals ----------------------------------------------------------

    def _walk_preorder(self, start: str) -> Iterator[str]:
        stack = [start]
        while stack:
            nid = stack.pop()
            yield nid
            for cid, _ in reversed(self._nodes[nid].children):
                stack.append(cid)

    def _validate(self) -> tuple[str, ...]:
        """Check every invariant; returns the node ids in preorder."""
        nodes, root, horizon, inf = self._nodes, self.root, self.horizon, float("inf")
        if horizon < 1:
            raise ModelValidationError("horizon must be >= 1")
        if root not in nodes:
            raise ModelValidationError(f"root {root!r} missing from node set")
        if nodes[root].time != 0:
            raise ModelValidationError(f"root {root!r} must sit at time 0")
        for nid, node in nodes.items():
            if nid != node.id:
                raise ModelValidationError(f"node {nid!r} indexed under wrong id")
            time, parent, kids = node.time, node.parent, node.children
            if parent is None:
                if nid != root:
                    raise ModelValidationError(f"node {nid!r} has no parent and is not the root")
            else:
                up = nodes.get(parent)
                if up is None:
                    raise ModelValidationError(f"node {nid!r} references missing parent {parent!r}")
                if up.time != time - 1:
                    raise ModelValidationError(
                        f"node {nid!r} at time {time} must have its parent one step earlier"
                    )
            if not 0 <= time <= horizon:
                raise ModelValidationError(f"node {nid!r} time {time} outside [0, {horizon}]")
            if len(kids) > 1 and len({cid for cid, _ in kids}) != len(kids):
                raise ModelValidationError(f"node {nid!r} lists a duplicate child")
            total = 0.0
            for cid, p in kids:
                child = nodes.get(cid)
                if child is None:
                    raise ModelValidationError(f"node {nid!r} references missing child {cid!r}")
                if child.parent != nid:
                    raise ModelValidationError(f"child {cid!r} does not point back to parent {nid!r}")
                if not (p >= 0.0 and p == p and p != inf):
                    raise ModelValidationError(f"edge {nid!r}->{cid!r} has invalid probability {p!r}")
                total += p
            if time == horizon:
                if kids:
                    raise ModelValidationError(f"node {nid!r} at the horizon must be a leaf")
            else:
                if not kids:
                    raise ModelValidationError(f"node {nid!r} is a leaf before the horizon")
                if abs(total - 1.0) > EPS_PROB:
                    raise ModelValidationError(
                        f"children probabilities of node {nid!r} sum to {total!r}, not 1"
                    )
        # one preorder walk from the root: every node must be reached, and
        # every leaf with a strictly positive path probability
        order: list[str] = []
        bad_leaf = None
        stack = [(root, 1.0)]
        while stack:
            nid, p = stack.pop()
            order.append(nid)
            kids = nodes[nid].children
            if not kids and p <= 0.0 and bad_leaf is None:
                bad_leaf = nid
            for cid, pc in reversed(kids):
                stack.append((cid, p * pc))
        if len(order) != len(nodes):
            reached = set(order)
            nid = next(nid for nid in nodes if nid not in reached)
            raise ModelValidationError(f"node {nid!r} is not connected to the root")
        if bad_leaf is not None:
            raise ModelValidationError(f"leaf {bad_leaf!r} has nonpositive path probability")
        return tuple(order)


def build_tree_from_spec(spec: Mapping) -> TreeModel:
    """Build and validate a :class:`TreeModel` from a plain-dict description.

    Expected shape: ``{"horizon": T, "nodes": [{"id", "time", "parent", "prob"}, ...]}``
    where ``prob`` is the probability of the edge from ``parent`` to the node
    (a number or a decimal string) and the root row omits ``parent``/``prob``.
    """
    try:
        horizon = int(spec["horizon"])
        rows = list(spec["nodes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed model spec: {exc}") from exc
    if horizon < 1:
        raise ModelValidationError("horizon must be >= 1")

    parsed: list[tuple[str, int, str | None, float]] = []
    for row in rows:
        try:
            nid = str(row["id"])
            time = int(row["time"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelValidationError(f"malformed node row {row!r}: {exc}") from exc
        parent = row.get("parent")
        parent = None if parent is None else str(parent)
        prob = 1.0
        if parent is not None:
            try:
                prob = float(row["prob"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelValidationError(f"node {nid!r} has no usable edge probability") from exc
        parsed.append((nid, time, parent, prob))

    ids = [nid for nid, _, _, _ in parsed]
    if len(set(ids)) != len(ids):
        dup = next(nid for nid, n in Counter(ids).items() if n > 1)
        raise ModelValidationError(f"duplicate node id {dup!r}")

    roots = [nid for nid, _, parent, _ in parsed if parent is None]
    if len(roots) != 1:
        raise ModelValidationError(f"expected exactly one root row, found {len(roots)}")

    children: dict[str, list[tuple[str, float]]] = {nid: [] for nid in ids}
    for nid, _, parent, prob in parsed:
        if parent is not None:
            if parent not in children:
                raise ModelValidationError(f"node {nid!r} references missing parent {parent!r}")
            children[parent].append((nid, prob))

    nodes = {
        nid: Node(id=nid, time=time, parent=parent, children=tuple(children[nid]))
        for nid, time, parent, _ in parsed
    }
    return TreeModel(horizon=horizon, nodes=nodes, root=roots[0])


def build_binomial_lattice(
    steps: int,
    p: float,
    labels: Callable[[int, int], float] | None = None,
) -> TreeModel | tuple[TreeModel, "NodeProcess"]:
    """A non-recombining binary event tree of depth ``steps`` with up-probability ``p``.

    Node ids are path strings: root ``"r"``, then ``"u"``/``"d"`` appended per
    step, so the tree carries the full history (the information structure of a
    recombining lattice unrolled). When ``labels`` is given it is called as
    ``labels(time, up_moves)`` and the resulting per-node values are returned
    alongside the tree as a :class:`NodeProcess`.
    """
    if steps < 1:
        raise ModelValidationError("steps must be >= 1")
    if not 0.0 < p < 1.0:
        raise ModelValidationError(f"up probability must lie in (0, 1), got {p!r}")
    nodes: dict[str, Node] = {}

    def grow(nid: str, time: int, parent: str | None) -> None:
        if time == steps:
            nodes[nid] = Node(nid, time, parent, ())
            return
        kids = ((nid + "u", p), (nid + "d", 1.0 - p))
        nodes[nid] = Node(nid, time, parent, kids)
        grow(nid + "u", time + 1, nid)
        grow(nid + "d", time + 1, nid)

    grow("r", 0, None)
    model = TreeModel(horizon=steps, nodes=nodes, root="r")
    if labels is None:
        return model
    values = {nid: float(labels(model.time(nid), nid.count("u"))) for nid in model.node_ids()}
    return model, NodeProcess(model, values)


@dataclass(frozen=True)
class NodeProcess:
    """A nonnegative finite value attached to every node of a model."""

    model: TreeModel
    values: Mapping[str, float]

    def __post_init__(self):
        vals = {nid: float(v) for nid, v in self.values.items()}
        for nid in self.model.node_ids():
            if nid not in vals:
                raise ModelValidationError(f"process undefined on node {nid!r}")
            v = vals[nid]
            if not (v >= 0.0 and v < float("inf")):
                raise ModelValidationError(f"process value at node {nid!r} is {v!r}; "
                                           "values must be nonnegative and finite")
        extra = set(vals) - set(self.model.node_ids())
        if extra:
            raise ModelValidationError(f"process defined on unknown node {sorted(extra)[0]!r}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, node_id: str) -> float:
        return self.values[node_id]


@dataclass(frozen=True)
class StoppingTime:
    """An exact cut: every path through ``start``'s subtree meets ``stop_set`` once.

    Membership of a node in ``stop_set`` depends only on the node — i.e. on the
    whole history up to it — so adaptedness is structural.
    """

    model: TreeModel
    start: str
    stop_set: frozenset[str]

    def __post_init__(self):
        stops = frozenset(self.stop_set)
        object.__setattr__(self, "stop_set", stops)
        model = self.model
        if self.start not in model:
            raise ModelValidationError(f"unknown start node {self.start!r}")
        # one preorder walk down to the first stop of each path; a stop node it
        # misses lies outside the subtree or below another stop, named below
        nodes = model._nodes
        reached = 0
        stack = [self.start]
        while stack:
            nid = stack.pop()
            if nid in stops:
                reached += 1
                continue
            kids = nodes[nid].children
            if not kids:
                raise ModelValidationError(f"path ending at leaf {nid!r} never stops")
            for cid, _ in reversed(kids):
                stack.append(cid)
        if reached == len(stops):
            return
        stray = stops.difference(model.subtree_ids(self.start))
        if stray:
            raise ModelValidationError(
                f"stop node {sorted(stray)[0]!r} lies outside the subtree of {self.start!r}"
            )
        t0 = model.time(self.start)
        nid = next(n for n in model.subtree_ids(self.start)
                   if n in stops and not stops.isdisjoint(model.path_to(n)[t0:-1]))
        raise ModelValidationError(f"path through {nid!r} stops more than once")

    def stop_node_on_path(self, leaf: str) -> str:
        """The unique stop node on the path from ``start`` through ``leaf``."""
        path, t0 = self.model.path_to(leaf), self.model.time(self.start)
        if path[t0:t0 + 1] != (self.start,):
            raise ValueError(f"{leaf!r} is not below start node {self.start!r}")
        for nid in path[t0:]:
            if nid in self.stop_set:
                return nid
        raise AssertionError("exact cut violated")  # unreachable after validation

    def stop_time_on_path(self, leaf: str) -> int:
        return self.model.time(self.stop_node_on_path(leaf))


@dataclass(frozen=True)
class MultiReward:
    """Evaluator for a d-component stopping reward ψ(τ₁,…,τ_d).

    ``fn`` receives the root-to-node path truncated at ``max(times)`` plus the
    times vector, which is exactly what measurability at the latest stop allows
    it to see.
    """

    d: int
    fn: Callable[[tuple[str, ...], tuple[int, ...]], float]
    symmetric: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def evaluate(self, path: Sequence[str], times: Sequence[int]) -> float:
        times = tuple(int(t) for t in times)
        if len(times) != self.d:
            raise ValueError(f"expected {self.d} stop times, got {len(times)}")
        last = max(times)
        if min(times) < 0:
            raise ValueError(f"negative stop time in {times}")
        if last + 1 > len(path):
            raise ValueError(f"path of length {len(path)} does not reach time {last}")
        return self.evaluate_trusted(tuple(path[: last + 1]), times)

    def evaluate_trusted(self, path: tuple[str, ...], times: tuple[int, ...]) -> float:
        """ψ on a caller-built ``times`` (d ints >= 0) and ``path`` (the root path
        cut at ``max(times)``); only the result is checked."""
        value = float(self.fn(path, times))
        if not (value >= 0.0 and value < float("inf")):
            raise ValueError(f"reward returned {value!r}; rewards must be nonnegative and finite")
        return value

    @classmethod
    def additive(cls, y: NodeProcess, d: int) -> "MultiReward":
        """ψ(τ₁,…,τ_d) = Σ_k y(τ_k)."""
        ys = y.values

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            return sum(ys[path[t]] for t in times)

        return cls(d=d, fn=fn, symmetric=True)

    @classmethod
    def multiplicative(cls, y: NodeProcess, d: int) -> "MultiReward":
        """ψ(τ₁,…,τ_d) = Π_k y(τ_k)."""
        ys = y.values

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            out = 1.0
            for t in times:
                out *= ys[path[t]]
            return out

        return cls(d=d, fn=fn, symmetric=True)

    @classmethod
    def zero(cls, d: int) -> "MultiReward":
        return cls(d=d, fn=lambda path, times: 0.0, symmetric=True)

    @classmethod
    def from_table(cls, d: int, table: Mapping[tuple[str, tuple[int, ...]], float],
                   symmetric: bool = False) -> "MultiReward":
        """General reward given as rows ``(node id at max(times), times) -> value``.

        With ``symmetric=True`` every permutation of a row's times must be a
        row of the same value; a :class:`ValueError` names the first row that
        breaks this.
        """
        frozen = {(nid, tuple(ts)): float(v) for (nid, ts), v in table.items()}
        if symmetric:
            for (nid, ts), v in frozen.items():
                for perm in permutations(ts):
                    if frozen.get((nid, perm)) != v:
                        raise ValueError(
                            f"reward table marked symmetric, but row ({nid!r}, {ts}) = {v!r} "
                            f"and row ({nid!r}, {perm}) = {frozen.get((nid, perm), 'missing')!r}"
                        )

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            key = (path[max(times)], times)
            try:
                return frozen[key]
            except KeyError:
                raise KeyError(f"reward table has no row for node {key[0]!r} at times {times}") from None

        return cls(d=d, fn=fn, symmetric=symmetric)

    @classmethod
    def from_function(cls, d: int, fn: Callable[[tuple[str, ...], tuple[int, ...]], float],
                      symmetric: bool = False) -> "MultiReward":
        return cls(d=d, fn=fn, symmetric=symmetric)


def conditional_expectation(x: NodeProcess, node_id: str) -> float:
    """One-step conditional expectation of ``x`` given the history at ``node_id``."""
    kids = x.model.children(node_id)
    if not kids:
        raise ValueError(f"node {node_id!r} is a leaf; conditional expectation needs children")
    total = 0.0
    for cid, p in kids:
        total += p * x[cid]
    return total


def stopping_time_value(tau: StoppingTime, x: NodeProcess, at: str) -> float:
    """E[x(τ) | history at ``at``], as a sum over stop nodes in the subtree of ``at``."""
    model = tau.model
    if x.model is not model:
        raise ValueError("process and stopping time live on different models")
    path, t0 = model.path_to(at), model.time(tau.start)
    if path[t0:t0 + 1] != (tau.start,):
        raise ValueError(f"stopping time starting at {tau.start!r} is not defined on the "
                         f"subtree of {at!r}")
    for nid in path[t0:-1]:
        if nid in tau.stop_set:
            raise ValueError(f"stopping time already stopped at {nid!r}, above {at!r}")

    total = 0.0
    stack = [(at, 1.0)]
    while stack:
        nid, p = stack.pop()
        if nid in tau.stop_set:
            total += p * x[nid]
            continue
        for cid, pc in reversed(model.children(nid)):
            stack.append((cid, p * pc))
    return total


def load_model(source: str | Path | Mapping) -> tuple[TreeModel, dict[str, NodeProcess]]:
    """Read a model file (or already-parsed dict) and its named processes.

    File shape::

        {"horizon": T,
         "nodes": [{"id": ..., "time": ..., "parent": ..., "prob": ...}, ...],
         "processes": {"name": [{"id": ..., "value": ...}, ...], ...}}

    ids are strings; probabilities and values may be numbers or decimal strings.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ModelValidationError(f"cannot read model file {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelValidationError(f"model file {source!r} is not valid JSON: {exc}") from exc
    else:
        raw = source
    model = build_tree_from_spec(raw)
    named = raw.get("processes", {})
    if not isinstance(named, Mapping):
        raise ModelValidationError(f"'processes' must map names to rows, not {type(named).__name__}")
    processes: dict[str, NodeProcess] = {}
    for name, rows in named.items():
        try:
            pairs = [(str(r["id"]), float(r["value"])) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelValidationError(f"malformed process {name!r}: {exc}") from exc
        values = dict(pairs)
        if len(values) != len(pairs):
            dup = next(nid for nid, n in Counter(nid for nid, _ in pairs).items() if n > 1)
            raise ModelValidationError(f"process {name!r} lists node {dup!r} more than once")
        processes[name] = NodeProcess(model, values)
    return model, processes


def instance_fingerprint(model: TreeModel, psi: MultiReward, start: str) -> str:
    """Identity hash for a (model, reward, start) instance.

    The model part is exact; general reward callbacks cannot be content-hashed,
    so the reward part is a digest of deterministic sample evaluations (enough
    to catch accidental instance mixups during certification).
    """
    h = hashlib.sha256()
    h.update(model.fingerprint().encode())
    h.update(f"|d={psi.d}|symmetric={psi.symmetric}|start={start}".encode())
    paths = {leaf: path for leaf, path, _, _ in model.leaf_paths(start)}
    t0 = model.time(start)
    for leaf in sorted(paths)[:16]:
        path = paths[leaf]
        t_leaf = len(path) - 1
        patterns = [
            tuple(t_leaf for _ in range(psi.d)),
            tuple(t0 for _ in range(psi.d)),
            tuple(min(t0 + k, t_leaf) for k in range(psi.d)),
        ]
        for times in patterns:
            h.update(f"{leaf}:{times}:{psi.evaluate(path, times)!r};".encode())
    return h.hexdigest()
