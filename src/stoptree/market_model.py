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
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import product
from pathlib import Path

EPS_PROB = 1e-12
DEFAULT_ENUMERATION_CAP = 10_000_000


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


@dataclass(frozen=True)
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

    def parent(self, node_id: str) -> str | None:
        return self.node(node_id).parent

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

    def is_ancestor_or_self(self, anc: str, node_id: str) -> bool:
        ta = self.time(anc)
        cur: str | None = node_id
        while cur is not None and self.time(cur) >= ta:
            if cur == anc:
                return True
            cur = self.node(cur).parent
        return False

    def subtree_ids(self, node_id: str) -> Iterator[str]:
        """Preorder iteration over the subtree rooted at ``node_id`` (inclusive)."""
        yield from self._walk_preorder(node_id)

    def leaves_below(self, node_id: str) -> Iterator[str]:
        for nid in self._walk_preorder(node_id):
            if not self._nodes[nid].children:
                yield nid

    def edge_prob(self, parent_id: str, child_id: str) -> float:
        for cid, p in self.children(parent_id):
            if cid == child_id:
                return p
        raise KeyError(f"{child_id!r} is not a child of {parent_id!r}")

    def cond_prob(self, anc: str, node_id: str) -> float:
        """P(node | anc), as the product of edge probabilities along the path.

        Computed multiplicatively (never by dividing path probabilities) so the
        result is exact whenever the edge probabilities are dyadic.
        """
        if not self.is_ancestor_or_self(anc, node_id):
            raise ValueError(f"{anc!r} is not an ancestor of {node_id!r}")
        p = 1.0
        cur = node_id
        while cur != anc:
            par = self.node(cur).parent
            assert par is not None
            p *= self.edge_prob(par, cur)
            cur = par
        return p

    def path_prob(self, node_id: str) -> float:
        return self.cond_prob(self.root, node_id)

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
        if self.horizon < 1:
            raise ModelValidationError("horizon must be >= 1")
        if self.root not in self._nodes:
            raise ModelValidationError(f"root {self.root!r} missing from node set")
        if self._nodes[self.root].time != 0:
            raise ModelValidationError(f"root {self.root!r} must sit at time 0")
        for nid, node in self._nodes.items():
            if nid != node.id:
                raise ModelValidationError(f"node {nid!r} indexed under wrong id")
            if node.parent is None:
                if nid != self.root:
                    raise ModelValidationError(f"node {nid!r} has no parent and is not the root")
            else:
                if node.parent not in self._nodes:
                    raise ModelValidationError(f"node {nid!r} references missing parent {node.parent!r}")
                if self._nodes[node.parent].time != node.time - 1:
                    raise ModelValidationError(
                        f"node {nid!r} at time {node.time} must have its parent one step earlier"
                    )
            if not 0 <= node.time <= self.horizon:
                raise ModelValidationError(f"node {nid!r} time {node.time} outside [0, {self.horizon}]")
            child_ids = [cid for cid, _ in node.children]
            if len(set(child_ids)) != len(child_ids):
                raise ModelValidationError(f"node {nid!r} lists a duplicate child")
            for cid, p in node.children:
                if cid not in self._nodes:
                    raise ModelValidationError(f"node {nid!r} references missing child {cid!r}")
                if self._nodes[cid].parent != nid:
                    raise ModelValidationError(f"child {cid!r} does not point back to parent {nid!r}")
                if not (p >= 0.0 and p == p and p != float("inf")):
                    raise ModelValidationError(f"edge {nid!r}->{cid!r} has invalid probability {p!r}")
            if node.time == self.horizon:
                if node.children:
                    raise ModelValidationError(f"node {nid!r} at the horizon must be a leaf")
            else:
                if not node.children:
                    raise ModelValidationError(f"node {nid!r} is a leaf before the horizon")
                total = sum(p for _, p in node.children)
                if abs(total - 1.0) > EPS_PROB:
                    raise ModelValidationError(
                        f"children probabilities of node {nid!r} sum to {total!r}, not 1"
                    )
        # one preorder walk from the root: every node must be reached, and
        # every leaf with a strictly positive path probability
        order: list[str] = []
        bad_leaf = None
        stack = [(self.root, 1.0)]
        while stack:
            nid, p = stack.pop()
            order.append(nid)
            kids = self._nodes[nid].children
            if not kids and p <= 0.0 and bad_leaf is None:
                bad_leaf = nid
            for cid, pc in reversed(kids):
                stack.append((cid, p * pc))
        if len(order) != len(self._nodes):
            reached = set(order)
            nid = next(nid for nid in self._nodes if nid not in reached)
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
        dup = next(nid for nid in ids if ids.count(nid) > 1)
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

    @classmethod
    def constant(cls, model: TreeModel, c: float) -> "NodeProcess":
        return cls(model, {nid: c for nid in model.node_ids()})

    @classmethod
    def from_function(cls, model: TreeModel, fn: Callable[[str], float]) -> "NodeProcess":
        return cls(model, {nid: fn(nid) for nid in model.node_ids()})


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
        object.__setattr__(self, "stop_set", frozenset(self.stop_set))
        model = self.model
        if self.start not in model:
            raise ModelValidationError(f"unknown start node {self.start!r}")
        in_subtree = set(model.subtree_ids(self.start))
        stray = self.stop_set - in_subtree
        if stray:
            raise ModelValidationError(
                f"stop node {sorted(stray)[0]!r} lies outside the subtree of {self.start!r}"
            )

        stack = [(self.start, False)]
        while stack:
            nid, stopped = stack.pop()
            if nid in self.stop_set:
                if stopped:
                    raise ModelValidationError(f"path through {nid!r} stops more than once")
                stopped = True
            kids = model.children(nid)
            if not kids and not stopped:
                raise ModelValidationError(f"path ending at leaf {nid!r} never stops")
            for cid, _ in reversed(kids):
                stack.append((cid, stopped))

    def stop_node_on_path(self, leaf: str) -> str:
        """The unique stop node on the path from ``start`` through ``leaf``."""
        if not self.model.is_ancestor_or_self(self.start, leaf):
            raise ValueError(f"{leaf!r} is not below start node {self.start!r}")
        for nid in self.model.path_to(leaf):
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
    it to see. ``structure`` is one of ``"general"``, ``"additive"`` or
    ``"symmetric-general"``.
    """

    d: int
    fn: Callable[[tuple[str, ...], tuple[int, ...]], float]
    symmetric: bool = False
    structure: str = "general"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.structure not in ("general", "additive", "symmetric-general"):
            raise ValueError(f"unknown reward structure {self.structure!r}")

    def evaluate(self, path: Sequence[str], times: Sequence[int]) -> float:
        times = tuple(int(t) for t in times)
        if len(times) != self.d:
            raise ValueError(f"expected {self.d} stop times, got {len(times)}")
        last = max(times)
        if min(times) < 0:
            raise ValueError(f"negative stop time in {times}")
        if last + 1 > len(path):
            raise ValueError(f"path of length {len(path)} does not reach time {last}")
        value = float(self.fn(tuple(path[: last + 1]), times))
        if not (value >= 0.0 and value < float("inf")):
            raise ValueError(f"reward returned {value!r}; rewards must be nonnegative and finite")
        return value

    @classmethod
    def additive(cls, y: NodeProcess, d: int) -> "MultiReward":
        """ψ(τ₁,…,τ_d) = Σ_k y(τ_k)."""

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            return sum(y[path[t]] for t in times)

        return cls(d=d, fn=fn, symmetric=True, structure="additive")

    @classmethod
    def multiplicative(cls, y: NodeProcess, d: int) -> "MultiReward":
        """ψ(τ₁,…,τ_d) = Π_k y(τ_k)."""

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            out = 1.0
            for t in times:
                out *= y[path[t]]
            return out

        return cls(d=d, fn=fn, symmetric=True, structure="symmetric-general")

    @classmethod
    def zero(cls, d: int) -> "MultiReward":
        return cls(d=d, fn=lambda path, times: 0.0, symmetric=True, structure="symmetric-general")

    @classmethod
    def from_table(cls, d: int, table: Mapping[tuple[str, tuple[int, ...]], float],
                   symmetric: bool = False) -> "MultiReward":
        """General reward given as rows ``(node id at max(times), times) -> value``."""
        frozen = {(nid, tuple(ts)): float(v) for (nid, ts), v in table.items()}

        def fn(path: tuple[str, ...], times: tuple[int, ...]) -> float:
            key = (path[max(times)], times)
            try:
                return frozen[key]
            except KeyError:
                raise KeyError(f"reward table has no row for node {key[0]!r} at times {times}") from None

        return cls(d=d, fn=fn, symmetric=symmetric,
                   structure="symmetric-general" if symmetric else "general")

    @classmethod
    def from_function(cls, d: int, fn: Callable[[tuple[str, ...], tuple[int, ...]], float],
                      symmetric: bool = False) -> "MultiReward":
        return cls(d=d, fn=fn, symmetric=symmetric,
                   structure="symmetric-general" if symmetric else "general")


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
    if not model.is_ancestor_or_self(tau.start, at):
        raise ValueError(f"stopping time starting at {tau.start!r} is not defined on the "
                         f"subtree of {at!r}")
    for nid in model.path_to(at)[:-1]:
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


def count_stopping_times(model: TreeModel, start: str) -> int:
    """Number of exact cuts of the subtree of ``start``: N(leaf)=1, N(n)=1+Π N(child)."""
    counts: dict[str, int] = {}
    for nid in reversed(tuple(model.subtree_ids(start))):
        kids = model.children(nid)
        if not kids:
            counts[nid] = 1
            continue
        prod_count = 1
        for cid, _ in kids:
            prod_count *= counts.pop(cid)
        counts[nid] = 1 + prod_count
    return counts[start]


def all_cuts(model: TreeModel, start: str) -> list[frozenset[str]]:
    """Every exact cut of the subtree of ``start`` as a stop set, in canonical
    order: stop-at-the-node first, then child combinations in declared child
    order, the first child varying slowest."""
    cuts: dict[str, list[frozenset[str]]] = {}
    for nid in reversed(tuple(model.subtree_ids(start))):
        out = [frozenset((nid,))]
        kids = model.children(nid)
        if kids:
            for combo in product(*(cuts.pop(cid) for cid, _ in kids)):
                out.append(frozenset().union(*combo))
        cuts[nid] = out
    return cuts[start]


def enumerate_stopping_times(
    model: TreeModel, start: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[StoppingTime]:
    """Yield every exact-cut stopping time on the subtree of ``start`` exactly once.

    Canonical order: stop-at-the-node first, then child combinations in declared
    child order. Raises :class:`CapExceededError` (reporting the count) when the
    subtree admits more than ``cap`` cuts.
    """
    total = count_stopping_times(model, start)
    if total > cap:
        raise CapExceededError(
            f"subtree of {start!r} admits {total} stopping times, above the cap of {cap}",
            count=total,
        )
    for cut in all_cuts(model, start):
        yield StoppingTime(model, start, cut)


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
    processes: dict[str, NodeProcess] = {}
    for name, rows in dict(raw.get("processes", {})).items():
        try:
            values = {str(r["id"]): float(r["value"]) for r in rows}
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelValidationError(f"malformed process {name!r}: {exc}") from exc
        processes[name] = NodeProcess(model, values)
    return model, processes


def dump_model(model: TreeModel, processes: Mapping[str, NodeProcess] | None = None) -> dict:
    """Inverse of :func:`load_model` for round-tripping models to JSON."""
    doc = model.to_spec()
    if processes:
        doc["processes"] = {
            name: [{"id": nid, "value": proc[nid]} for nid in model.node_ids()]
            for name, proc in processes.items()
        }
    return doc


def instance_fingerprint(model: TreeModel, psi: MultiReward, start: str) -> str:
    """Identity hash for a (model, reward, start) instance.

    The model part is exact; general reward callbacks cannot be content-hashed,
    so the reward part is a digest of deterministic sample evaluations (enough
    to catch accidental instance mixups during certification).
    """
    h = hashlib.sha256()
    h.update(model.fingerprint().encode())
    h.update(f"|d={psi.d}|structure={psi.structure}|symmetric={psi.symmetric}|start={start}".encode())
    leaves = sorted(model.leaves_below(start))[:16]
    t0 = model.time(start)
    for leaf in leaves:
        path = model.path_to(leaf)
        t_leaf = model.time(leaf)
        patterns = [
            tuple(t_leaf for _ in range(psi.d)),
            tuple(t0 for _ in range(psi.d)),
            tuple(min(t0 + k, t_leaf) for k in range(psi.d)),
        ]
        for times in patterns:
            h.update(f"{leaf}:{times}:{psi.evaluate(path, times)!r};".encode())
    return h.hexdigest()
