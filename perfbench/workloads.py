"""The four workloads: pool shapes, one timed operation, its exact check,
and the probes that re-time the operation's parts in the traced run.

An operation takes one generated instance from its model file to a result
the benchmark can check. ``op`` is the timed region; ``prepare``, ``check``
and ``probe`` run outside it. Every comparison is ``==``: the generated
inputs keep all arithmetic exact (see generator.py).
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import generator


def table_reward(table):
    def fn(path, times):
        return table[(path[max(times)], times)]

    return fn


class CountingTable:
    """The benchmark's own table reward, counting the calls made to it and
    the distinct ``(node at max time, times)`` keys asked for."""

    def __init__(self, table):
        self.table = table
        self.calls = 0
        self.keys: set = set()

    def __call__(self, path, times):
        key = (path[max(times)], times)
        self.calls += 1
        self.keys.add(key)
        return self.table[key]

    def take(self, tr, layer: str) -> None:
        """Book the calls so far to ``layer`` and start counting afresh."""
        tr.count(f"{layer}.reward_evals", self.calls)
        tr.count(f"{layer}.reward_distinct", len(self.keys))
        self.calls = 0
        self.keys = set()


def sized(depth: int, d: int, reward: str, nodes) -> list[generator.Shape]:
    """Timed-pool shapes: trees of one horizon, one per node count."""
    return [("tree", depth, n, d, reward, "high") for n in nodes]


@dataclass
class Prepared:
    """What set-up leaves for one pool instance: its files and expectations."""

    inst: generator.Instance
    files: dict[str, Path]
    expected: dict = field(default_factory=dict)


class Workload:
    name = ""
    # ``shapes`` make the timed pool; every op on them must pass. Their
    # sizes are spread so that op times step by well under the machine's
    # own swings in speed (see "Sizes" in NOTES.md). ``known_defects`` are
    # run once, untimed, after the loop: instances that fail at the commit
    # that added this benchmark (see NOTES.md), kept so the failures stay
    # visible in ``failed_frac``.
    shapes: list[generator.Shape] = []
    known_defects: list[generator.Shape] = []

    def __init__(self, st, workdir: Path):
        self.st = st  # the imported stoptree package
        self.workdir = workdir

    def prepare(self, inst: generator.Instance, directory: Path) -> Prepared:
        files, _ = generator.write_instance(inst, directory)
        return Prepared(inst, files)

    def inputs(self, prep: Prepared) -> dict:
        """Per-op inputs read outside the timed region."""
        inp = {"model": str(prep.files["model"])}
        if "table" in prep.files:
            inp["table"] = generator.read_table(prep.files["table"])
        return inp

    def reward(self, inp: dict, tr):
        """The table reward; counting its calls when the tracer takes counts."""
        if tr.counting:
            return CountingTable(inp["table"])
        return table_reward(inp["table"])

    def load(self, inp: dict, tr):
        with tr.span("market_model.load"):
            model, processes = self.st.load_model(inp["model"])
        tr.count("market_model.nodes", len(model))
        return model, processes

    def op(self, prep: Prepared, inp: dict, tr) -> dict:
        raise NotImplementedError

    def check(self, prep: Prepared, res: dict) -> tuple[str, str] | None:
        """``None`` when the result is exact, else ``(layer, what differs)``."""
        raise NotImplementedError

    def probe(self, prep: Prepared, inp: dict, res: dict, tr) -> None:
        pass


class NestedGeneral(Workload):
    name = "nested_general"
    # Op times of about 0.05 to 0.3 s; the d=3 ops are the slower half.
    shapes = sized(8, 2, "table", (150, 200, 270, 370, 511)) + sized(6, 3, "table", (50, 68, 92, 127))
    known_defects = [("tree", 8, None, 2, "table", "low")]

    def op(self, prep, inp, tr):
        st = self.st
        model, _ = self.load(inp, tr)
        counter = self.reward(inp, tr)
        psi = st.MultiReward.from_function(prep.inst.d, counter)
        with tr.span("multiple_stopping.solve"):
            rep = st.solve_multi(model, psi, model.root)
        if tr.counting:
            counter.take(tr, "multiple_stopping")
        with tr.span("multiple_stopping.postcheck"):
            attained = st.tuple_value(rep.stopping_tuple, psi)
        return {"model": model, "psi": psi, "rep": rep, "attained": attained}

    def check(self, prep, res):
        rep = res["rep"]
        reduced = rep.snell.value[res["model"].root]
        if not rep.value == res["attained"] == reduced:
            return ("multiple_stopping",
                    f"value {rep.value!r}, tuple attains {res['attained']!r}, reduced value {reduced!r}")
        return equality_set_check(rep.snell)

    def probe(self, prep, inp, res, tr):
        st = self.st
        rep, root = res["rep"], res["model"].root
        tr.count("multiple_stopping.stop_nodes", stop_nodes(rep.stopping_tuple))
        with tr.span("multiple_stopping.reduction"):
            with tr.span("single_stopping.snell"):
                sol = st.snell_solve(rep.new_reward_process)
            with tr.span("single_stopping.stop_rule"):
                st.minimal_optimal_stop(sol, root)
        fresh, _ = st.load_model(inp["model"])
        with tr.span("market_model.fingerprint"):
            fresh.fingerprint()
        fresh, _ = st.load_model(inp["model"])
        with tr.span("multiple_stopping.fingerprint"):
            st.instance_fingerprint(fresh, res["psi"], root)


class OrderedSwing(Workload):
    name = "ordered_swing"
    # Op times of about 0.15 to 0.6 s, the three families interleaved.
    shapes = (sized(10, 2, "process", (500, 730, 1066, 1556))
              + sized(11, 2, "process", (650, 950, 1390, 2030))
              + sized(10, 3, "process", (240, 350, 512, 750)))
    known_defects = [("tree", 10, None, 2, "process", "low")]

    def op(self, prep, inp, tr):
        st = self.st
        model, processes = self.load(inp, tr)
        y, d, root = processes["y"], prep.inst.d, model.root
        add = st.MultiReward.additive(y, d)
        mul = st.MultiReward.multiplicative(y, d)
        with tr.span("symmetric_swing.swing"):
            gap0 = st.swing_solve(model, y, d, 0, root)
        with tr.span("symmetric_swing.swing"):
            gap2 = st.swing_solve(model, y, d, 2, root)
        with tr.span("symmetric_swing.symmetric"):
            sym_add = st.symmetric_backward(model, add, root)
        with tr.span("symmetric_swing.symmetric"):
            sym_mul = st.symmetric_backward(model, mul, root)
        with tr.span("symmetric_swing.postcheck"):
            attained = {
                "swing gap 0": (gap0.value, st.tuple_value(gap0.components, add)),
                "swing gap 2": (gap2.value, st.tuple_value(gap2.components, add)),
                "symmetric additive": (sym_add.value, st.tuple_value(sym_add.components, add)),
                "symmetric multiplicative": (sym_mul.value, st.tuple_value(sym_mul.components, mul)),
            }
        if tr.counting:
            tr.count("symmetric_swing.stop_nodes", sum(
                stop_nodes(s.components) for s in (gap0, gap2, sym_add, sym_mul)))
        return {"attained": attained}

    def check(self, prep, res):
        att = res["attained"]
        gap0, gap2 = att["swing gap 0"][0], att["swing gap 2"][0]
        if gap0 != att["symmetric additive"][0]:
            return ("symmetric_swing",
                    f"swing gap 0 value {gap0!r} != symmetric additive {att['symmetric additive'][0]!r}")
        if not gap2 <= gap0:
            return ("symmetric_swing", f"swing gap 2 value {gap2!r} above gap 0 value {gap0!r}")
        for what, (value, got) in att.items():
            if got != value:
                return ("symmetric_swing", f"{what}: value {value!r}, tuple attains {got!r}")
        return None


class SingleCli(Workload):
    name = "single_cli"
    # Horizon 14 with 2,500 to 8,000 nodes: op times of about 0.1 to 0.4 s.
    shapes = sized(14, 1, "process", (2500, 2950, 3480, 4100, 4840, 5720, 6750, 7960))
    known_defects = [("tree", 14, 4100, 1, "process", "low"), ("chain", 2000, None, 1, "process", "high")]
    lambdas = "0.5,0.9"

    def prepare(self, inst, directory):
        files, doc = generator.write_instance(inst, directory)
        files["out"] = directory / f"report{inst.index}.json"
        return Prepared(inst, files, reference_single(doc))

    def inputs(self, prep):
        prep.files["out"].unlink(missing_ok=True)
        return {"model": str(prep.files["model"]), "out": str(prep.files["out"])}

    def argv(self, inp):
        return ["single", "--model", inp["model"], "--lambda", self.lambdas, "--out", inp["out"]]

    def op(self, prep, inp, tr):
        with tr.span("cli.main"):
            code = self.st.cli.main(self.argv(inp))
        return {"code": code}

    def check(self, prep, res):
        if res["code"] != 0:
            return ("cli", f"exit code {res['code']}")
        report = json.loads(prep.files["out"].read_text())
        want = prep.expected
        if report["value"] != want["value"]:
            return ("single_stopping", f"value {report['value']!r}, reference {want['value']!r}")
        if report["minimal_stop_nodes"] != want["stop_nodes"]:
            return ("single_stopping",
                    f"{len(report['minimal_stop_nodes'])} stop nodes, reference has {len(want['stop_nodes'])}")
        if report["equality_set"] != want["equality_set"]:
            return ("single_stopping", f"equality set has {len(report['equality_set'])} nodes, "
                                       f"reference has {len(want['equality_set'])}")
        return None

    def probe(self, prep, inp, res, tr):
        st, cli = self.st, self.st.cli
        with tr.span("market_model.load"):
            model, processes = st.load_model(inp["model"])
        tr.count("market_model.nodes", len(model))
        with tr.span("market_model.fingerprint"):
            model.fingerprint()
        root = model.root
        with tr.span("single_stopping.snell"):
            sol = st.snell_solve(processes["y"])
        with tr.span("single_stopping.stop_rule"):
            tau = st.minimal_optimal_stop(sol, root)
            for lam in (0.5, 0.9):
                st.lambda_stop(sol, root, lam)
        with tr.span("single_stopping.check"):
            st.check_optimality(sol, root, tau)
        tr.count("single_stopping.stop_nodes", len(tau.stop_set))
        del model, processes, sol, tau
        config = cli.RunConfig(mode="single", model_path=inp["model"], lambdas=(0.5, 0.9),
                               out=inp["out"])
        with tr.span("cli.run"):
            _, report = cli.run(config)
        with tr.span("cli.emit"):
            text = cli.emit_report(report, "json")
        tr.count("cli.report_bytes", len(text.encode()))


class CertifyOracle(Workload):
    name = "certify_oracle"
    # The test-suite shapes (full depth 3 with d=2 and d=3 tables, full
    # depth 4 additive with gap 2) and sparser trees of horizon 4 to 8 whose
    # 4,913 to 21,952 tuples fill in op times of 0.15 to 1 s, densest at
    # the top, where the tail falls.
    shapes = ([("tree", 3, None, 2, "table", "high"), ("tree", 4, None, 2, "additive", "high")]
              + [("tree", t, n, 3, "table", "high") for t, n in ((8, 13), (5, 12), (5, 13), (4, 13), (6, 13),
                                                                (7, 14))]
              + [("tree", t, n, 2, "table", "high") for t, n in ((6, 17), (5, 18), (7, 19), (6, 19), (8, 21),
                                                                (6, 20), (5, 21))]
              + [("tree", 3, None, 3, "table", "high")])
    known_defects = [("tree", 3, None, 2, "table", "low")]

    def op(self, prep, inp, tr):
        st = self.st
        model, processes = self.load(inp, tr)
        root = model.root
        if prep.inst.reward == "additive":
            y = processes["y"]
            psi = st.MultiReward.additive(y, 2)
            with tr.span("symmetric_swing.swing"):
                sol = st.swing_solve(model, y, 2, 2, root)
            with tr.span("oracle.enumerate"):
                orep = st.brute_force_value(model, psi, root, min_gap=2)
            tr.count("oracle.tuples", orep.enumerated_count)
            tr.count("oracle.optimal_tuples", len(orep.optimal_tuples))
            with tr.span("symmetric_swing.postcheck"):
                attained = st.tuple_value(sol.components, psi)
            return {"solver": sol.value, "oracle": orep.value, "attained": attained,
                    "layer": "symmetric_swing"}
        counter = self.reward(inp, tr)
        psi = st.MultiReward.from_function(prep.inst.d, counter)
        with tr.span("multiple_stopping.solve"):
            rep = st.solve_multi(model, psi, root)
        if tr.counting:
            counter.take(tr, "multiple_stopping")
        with tr.span("oracle.enumerate"):
            orep = st.brute_force_value(model, psi, root)
        if tr.counting:
            counter.take(tr, "oracle")
        tr.count("oracle.tuples", orep.enumerated_count)
        tr.count("oracle.optimal_tuples", len(orep.optimal_tuples))
        with tr.span("oracle.certify"):
            st.certify(rep, orep)
        with tr.span("multiple_stopping.postcheck"):
            attained = st.tuple_value(rep.stopping_tuple, psi)
        return {"solver": rep.value, "oracle": orep.value, "attained": attained,
                "layer": "multiple_stopping", "snell": rep.snell}

    def check(self, prep, res):
        if not res["solver"] == res["oracle"] == res["attained"]:
            return (res["layer"], f"solver {res['solver']!r}, oracle {res['oracle']!r}, "
                                  f"tuple attains {res['attained']!r}")
        return equality_set_check(res["snell"]) if "snell" in res else None


def equality_set_check(snell) -> tuple[str, str] | None:
    """The envelope touches the reward exactly where the library says it does.

    The library decides ``v = reward`` with an absolute tolerance; on these
    inputs every value is exact, so the set can be recomputed with ``==``.
    """
    exact = frozenset(n for n, v in snell.value.values.items() if v == snell.reward[n])
    if snell.equality_set == exact:
        return None
    return ("single_stopping",
            f"equality set has {len(snell.equality_set)} nodes, exactly {len(exact)} touch the reward")


def stop_nodes(tup) -> int:
    """Output size of a stopping tuple: stop nodes over all components."""
    return sum(len(tau.stop_set) for tau in tup.components)


WORKLOADS = {w.name: w for w in (NestedGeneral, OrderedSwing, SingleCli, CertifyOracle)}


def reference_single(doc: dict) -> dict:
    """Optimal single-stop value, earliest optimal stop nodes and the set
    where the envelope touches the payoff, by an iterative backward
    induction over the generated spec that stops where the payoff is ``>=``
    the continuation value, compared exactly."""
    y = {row["id"]: row["value"] for row in doc["processes"]["y"]}
    kids: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for row in doc["nodes"][1:]:
        kids[row["parent"]].append((row["id"], row["prob"]))
    value: dict[str, float] = {}
    stop: set[str] = set()
    for row in reversed(doc["nodes"]):  # rows are in time order
        nid = row["id"]
        cont = 0.0
        for cid, p in kids[nid]:
            cont += p * value[cid]
        if not kids[nid] or y[nid] >= cont:
            value[nid] = y[nid]
            stop.add(nid)
        else:
            value[nid] = cont
    root = doc["nodes"][0]["id"]
    stops, stack = [], [root]
    while stack:
        nid = stack.pop()
        if nid in stop:
            stops.append(nid)
        else:
            stack.extend(cid for cid, _ in kids[nid])
    return {"value": value[root], "stop_nodes": sorted(stops), "equality_set": sorted(stop)}
