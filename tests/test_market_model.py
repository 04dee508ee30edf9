"""Tree structure, processes, stopping times, rewards, and (de)serialization."""
from __future__ import annotations

import json
import math
import random

import pytest

from stoptree import (
    ModelValidationError,
    MultiReward,
    NodeProcess,
    StoppingTime,
    build_binomial_lattice,
    build_tree_from_spec,
    conditional_expectation,
    instance_fingerprint,
    load_model,
    stopping_time_value,
)
from tests.conftest import FIXTURES, all_cuts, make_binary_tree, make_process, sample_cut


def _spec(horizon, rows):
    return {"horizon": horizon, "nodes": rows}


def _cond_prob(model, anc, node_id):
    """P(node | anc) as the product of the edge probabilities between them."""
    path = model.path_to(node_id)[model.time(anc):]
    assert path[0] == anc
    p = 1.0
    for parent, child in zip(path, path[1:]):
        p *= model.edge_prob(parent, child)
    return p


def _tiny():
    return build_tree_from_spec(
        _spec(1, [
            {"id": "r", "time": 0},
            {"id": "a", "time": 1, "parent": "r", "prob": 0.25},
            {"id": "b", "time": 1, "parent": "r", "prob": 0.75},
        ])
    )


# -- validation -----------------------------------------------------------


def test_rejects_bad_horizon():
    with pytest.raises(ModelValidationError, match="horizon"):
        build_tree_from_spec(_spec(0, [{"id": "r", "time": 0}]))


def test_rejects_duplicate_ids():
    with pytest.raises(ModelValidationError, match="duplicate"):
        build_tree_from_spec(
            _spec(1, [
                {"id": "r", "time": 0},
                {"id": "a", "time": 1, "parent": "r", "prob": 0.5},
                {"id": "a", "time": 1, "parent": "r", "prob": 0.5},
            ])
        )


def test_rejects_multiple_roots():
    with pytest.raises(ModelValidationError, match="root"):
        build_tree_from_spec(
            _spec(1, [
                {"id": "r", "time": 0},
                {"id": "s", "time": 0},
                {"id": "a", "time": 1, "parent": "r", "prob": 1.0},
            ])
        )


def test_rejects_missing_parent():
    with pytest.raises(ModelValidationError, match="missing parent"):
        build_tree_from_spec(
            _spec(1, [
                {"id": "r", "time": 0},
                {"id": "a", "time": 1, "parent": "zzz", "prob": 1.0},
            ])
        )


def test_rejects_time_gap():
    with pytest.raises(ModelValidationError, match="one step earlier"):
        build_tree_from_spec(
            _spec(2, [
                {"id": "r", "time": 0},
                {"id": "a", "time": 2, "parent": "r", "prob": 1.0},
            ])
        )


def test_rejects_leaf_before_horizon():
    with pytest.raises(ModelValidationError, match="leaf before the horizon"):
        build_tree_from_spec(
            _spec(2, [
                {"id": "r", "time": 0},
                {"id": "a", "time": 1, "parent": "r", "prob": 1.0},
            ])
        )


def test_rejects_bad_probability_sum():
    with pytest.raises(ModelValidationError, match="sum"):
        build_tree_from_spec(
            _spec(1, [
                {"id": "r", "time": 0},
                {"id": "a", "time": 1, "parent": "r", "prob": 0.5},
                {"id": "b", "time": 1, "parent": "r", "prob": 0.25},
            ])
        )


def test_rejects_root_at_wrong_time():
    with pytest.raises(ModelValidationError):
        build_tree_from_spec(
            _spec(1, [
                {"id": "r", "time": 1},
                {"id": "a", "time": 2, "parent": "r", "prob": 1.0},
            ])
        )


def test_accepts_decimal_string_probabilities():
    model = build_tree_from_spec(
        _spec(1, [
            {"id": "r", "time": 0},
            {"id": "a", "time": 1, "parent": "r", "prob": "0.25"},
            {"id": "b", "time": 1, "parent": "r", "prob": "0.75"},
        ])
    )
    assert model.edge_prob("r", "a") == 0.25


# -- structure queries ----------------------------------------------------


def test_paths_and_probabilities(depth2):
    model, _ = depth2
    assert model.path_to("du") == ("n0", "d", "du")
    assert model.time("du") == 2
    assert model.is_leaf("du") and not model.is_leaf("d")


def test_subtree_and_leaves(depth2):
    model, _ = depth2
    assert list(model.subtree_ids("d")) == ["d", "du", "dd"]
    assert list(model.leaves_below("n0")) == ["uu", "ud", "du", "dd"]
    assert model.nodes_at_time(1) == ("u", "d")


def test_spec_round_trip(depth2):
    model, x = depth2
    again = build_tree_from_spec(model.to_spec())
    assert again.node_ids() == model.node_ids()
    assert again.fingerprint() == model.fingerprint()


def test_fingerprint_sensitivity(depth2):
    model, _ = depth2
    other = _tiny()
    assert model.fingerprint() != other.fingerprint()


# -- processes ------------------------------------------------------------


def test_process_requires_full_coverage(depth2):
    model, _ = depth2
    with pytest.raises(ModelValidationError, match="undefined"):
        NodeProcess(model, {"n0": 1.0})


def test_process_rejects_negative_and_nonfinite():
    model = _tiny()
    with pytest.raises(ModelValidationError):
        NodeProcess(model, {"r": -1.0, "a": 0.0, "b": 0.0})
    with pytest.raises(ModelValidationError):
        NodeProcess(model, {"r": math.nan, "a": 0.0, "b": 0.0})
    with pytest.raises(ModelValidationError):
        NodeProcess(model, {"r": math.inf, "a": 0.0, "b": 0.0})


def test_process_rejects_unknown_node():
    model = _tiny()
    with pytest.raises(ModelValidationError, match="unknown node"):
        NodeProcess(model, {"r": 0.0, "a": 0.0, "b": 0.0, "zzz": 1.0})


# -- stopping times -------------------------------------------------------


def test_stopping_time_must_cut_every_path(depth2):
    model, _ = depth2
    with pytest.raises(ModelValidationError, match="never stops"):
        StoppingTime(model, "n0", frozenset({"u"}))


def test_stopping_time_rejects_double_stop(depth2):
    model, _ = depth2
    with pytest.raises(ModelValidationError, match="more than once"):
        StoppingTime(model, "n0", frozenset({"u", "d", "du", "dd"}))


def test_stopping_time_rejects_outside_subtree(depth2):
    model, _ = depth2
    with pytest.raises(ModelValidationError, match="outside"):
        StoppingTime(model, "d", frozenset({"u", "du", "dd"}))


def test_stop_node_lookup(depth2):
    model, _ = depth2
    tau = StoppingTime(model, "n0", frozenset({"u", "du", "dd"}))
    assert tau.stop_node_on_path("uu") == "u"
    assert tau.stop_time_on_path("uu") == 1
    assert tau.stop_node_on_path("dd") == "dd"
    with pytest.raises(ValueError):
        StoppingTime(model, "d", frozenset({"du", "dd"})).stop_node_on_path("uu")


def test_stopping_time_value_matches_hand_sum(depth2):
    # stop at u (payoff 0) on the up branch, at the leaves on the down branch:
    # 1/2*0 + 1/4*4 + 1/4*4 = 2
    model, x = depth2
    tau = StoppingTime(model, "n0", frozenset({"u", "du", "dd"}))
    assert stopping_time_value(tau, x, "n0") == 2.0
    assert stopping_time_value(tau, x, "d") == 4.0
    assert stopping_time_value(tau, x, "du") == 4.0  # at the stop itself: fine
    with pytest.raises(ValueError, match="already stopped"):
        stopping_time_value(tau, x, "uu")


def test_conditional_expectation(depth2):
    model, x = depth2
    assert conditional_expectation(x, "d") == 4.0
    assert conditional_expectation(x, "n0") == 1.5
    with pytest.raises(ValueError, match="leaf"):
        conditional_expectation(x, "uu")


# -- rewards --------------------------------------------------------------


def test_additive_reward(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    assert psi.evaluate(model.path_to("du"), (1, 2)) == 7.0  # 3 + 4
    assert psi.evaluate(model.path_to("du"), (2, 2)) == 8.0
    assert psi.symmetric


def test_multiplicative_and_zero(depth2):
    model, x = depth2
    times = (1, 2)
    assert MultiReward.multiplicative(x, 2).evaluate(model.path_to("du"), times) == 12.0
    assert MultiReward.zero(2).evaluate(model.path_to("du"), times) == 0.0


def test_reward_evaluate_validation(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    path = model.path_to("du")
    with pytest.raises(ValueError, match="stop times"):
        psi.evaluate(path, (1,))
    with pytest.raises(ValueError, match="negative"):
        psi.evaluate(path, (-1, 0))
    with pytest.raises(ValueError, match="does not reach"):
        psi.evaluate(path[:2], (1, 2))


def test_reward_truncates_to_latest_stop(depth2):
    # measurability: the callback must not see past max(times)
    model, _ = depth2
    seen = []
    psi = MultiReward.from_function(2, lambda path, times: (seen.append(path), 1.0)[1])
    psi.evaluate(model.path_to("du"), (0, 1))
    assert seen == [("n0", "d")]


def test_table_reward_missing_row(depth2):
    model, _ = depth2
    psi = MultiReward.from_table(2, {("n0", (0, 0)): 1.0})
    assert psi.evaluate(model.path_to("du"), (0, 0)) == 1.0
    with pytest.raises(KeyError, match="no row"):
        psi.evaluate(model.path_to("du"), (0, 1))


def test_rejects_negative_reward(depth2):
    model, _ = depth2
    psi = MultiReward.from_function(1, lambda path, times: -1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        psi.evaluate(model.path_to("du"), (0,))


def test_reward_d_validation():
    with pytest.raises(ValueError, match="d must be"):
        MultiReward.zero(0)


# -- lattice builder ------------------------------------------------------


def test_binomial_lattice_shape():
    model = build_binomial_lattice(3, 0.5)
    assert model.horizon == 3
    assert len(model) == 15
    assert model.children("r") == (("ru", 0.5), ("rd", 0.5))
    assert model.is_leaf("ruud")


def test_binomial_lattice_with_labels():
    model, prices = build_binomial_lattice(2, 0.25, labels=lambda t, ups: 2.0 ** ups)
    assert prices["r"] == 1.0
    assert prices["ru"] == 2.0
    assert prices["ruu"] == 4.0
    assert prices["rud"] == 2.0


def test_binomial_lattice_validation():
    with pytest.raises(ModelValidationError):
        build_binomial_lattice(0, 0.5)
    with pytest.raises(ModelValidationError):
        build_binomial_lattice(2, 1.0)


# -- model files ----------------------------------------------------------


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelValidationError, match="not valid JSON"):
        load_model(path)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelValidationError, match="cannot read"):
        load_model(tmp_path / "nope.json")


def test_instance_fingerprint_distinguishes(depth2):
    model, x = depth2
    a = instance_fingerprint(model, MultiReward.additive(x, 2), "n0")
    b = instance_fingerprint(model, MultiReward.multiplicative(x, 2), "n0")
    c = instance_fingerprint(model, MultiReward.additive(x, 2), "d")
    assert len({a, b, c}) == 3
    assert a == instance_fingerprint(model, MultiReward.additive(x, 2), "n0")


def test_random_process_generator_is_exact():
    rng = random.Random(11)
    model = make_binary_tree(rng, 2)
    x = make_process(rng, model)
    # dyadic probabilities times integers stay exact: summing path probs gives 1
    assert sum(_cond_prob(model, "n0", leaf) for leaf in model.leaves_below("n0")) == 1.0
    assert all(float(x[nid]).is_integer() for nid in model.node_ids())


@pytest.mark.parametrize("seed", range(6))
def test_leaf_paths_match_per_leaf_queries(seed):
    rng = random.Random(4_200 + seed)
    model = make_binary_tree(rng, 1 + seed % 4)
    for start in model.node_ids():
        taus = [sample_cut(rng, model, start) for _ in range(3)]
        expected = [
            (leaf, model.path_to(leaf), _cond_prob(model, start, leaf),
             tuple(tau.stop_time_on_path(leaf) for tau in taus))
            for leaf in model.leaves_below(start)
        ]
        assert list(model.leaf_paths(start, [tau.stop_set for tau in taus])) == expected
        assert [row[:3] + ((),) for row in expected] == list(model.leaf_paths(start))


def test_leaf_paths_times_of_any_node_sets(depth2):
    model, _ = depth2
    sets = [frozenset({"n0"}), frozenset({"dd"}), frozenset({"d", "dd"})]
    rows = list(model.leaf_paths("d", sets))
    assert [(leaf, times) for leaf, _, _, times in rows] == [("du", (0, None, 1)), ("dd", (0, 2, 1))]


def test_symmetric_table_must_be_symmetric():
    doc = json.loads((FIXTURES / "table_d2.json").read_text())
    table = {(r["node"], tuple(r["times"])): float(r["value"]) for r in doc["rows"]}
    assert not MultiReward.from_table(2, table).symmetric
    with pytest.raises(ValueError, match=r"symmetric.*'u', \(0, 1\)"):
        MultiReward.from_table(2, table, symmetric=True)
    sym = {(nid, ts): table[nid, tuple(sorted(ts))] for nid, ts in table}
    assert MultiReward.from_table(2, sym, symmetric=True).symmetric
    del sym["u", (1, 0)]
    with pytest.raises(ValueError, match="missing"):
        MultiReward.from_table(2, sym, symmetric=True)


# -- the one-walk cut check -------------------------------------------------


def _is_exact_cut(model, start, stops) -> bool:
    """The predicate the cut check decides: ``stops`` lies in the subtree of
    ``start`` and every path from ``start`` to a leaf meets it exactly once."""
    if not stops <= set(model.subtree_ids(start)):
        return False
    t0 = model.time(start)
    return all(sum(nid in stops for nid in model.path_to(leaf)[t0:]) == 1
               for leaf in model.leaves_below(start))


def _candidate_sets(model, start, rng):
    """All node sets on small models; on larger ones, exact cuts, the same
    cuts with one node added or dropped, and random sets."""
    ids = model.node_ids()
    if len(ids) <= 8:
        for mask in range(2 ** len(ids)):
            yield frozenset(nid for k, nid in enumerate(ids) if mask >> k & 1)
        return
    cuts = all_cuts(model, start)
    for cut in rng.sample(cuts, min(len(cuts), 40)):
        yield cut
        yield cut | {rng.choice(ids)}
        yield cut - {rng.choice(sorted(cut))}
    for _ in range(40):
        yield frozenset(rng.sample(ids, rng.randint(0, len(ids))))


@pytest.mark.parametrize("fixture", ["depth2", "chain3", "depth4"])
def test_cut_check_accepts_exactly_the_exact_cuts(fixture, request):
    model, _ = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    verdicts = set()
    for start in model.node_ids():
        for stops in _candidate_sets(model, start, rng):
            exact = _is_exact_cut(model, start, stops)
            verdicts.add(exact)
            if exact:
                assert StoppingTime(model, start, stops).stop_set == stops
            else:
                with pytest.raises(ModelValidationError):
                    StoppingTime(model, start, stops)
    assert verdicts == {True, False}


@pytest.mark.parametrize("start, stops, message", [
    ("n0", {"u"}, "path ending at leaf 'du' never stops"),
    ("n0", {"u", "d", "du", "dd"}, "path through 'du' stops more than once"),
    ("d", {"u", "du", "dd"}, "stop node 'u' lies outside the subtree of 'd'"),
])
def test_cut_check_names_the_offending_node(depth2, start, stops, message):
    model, _ = depth2
    with pytest.raises(ModelValidationError) as err:
        StoppingTime(model, start, frozenset(stops))
    assert str(err.value) == message


def test_load_model_rejects_a_repeated_process_row():
    doc = json.loads((FIXTURES / "depth2.json").read_text())
    doc["processes"]["x"].append({"id": "n0", "value": 999})
    with pytest.raises(ModelValidationError, match="process 'x' lists node 'n0' more than once"):
        load_model(doc)
