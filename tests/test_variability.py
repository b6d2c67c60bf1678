"""Configuration semantics against the brute-force subset interpreter."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imog
from genmodels import feature_model_text
from imog import variability
from imog.errors import (
    BudgetExceededError,
    InvalidFeatureTreeError,
    UnknownElementError,
)
from oracle import BruteForce, canonical_order


def parse_functional(body: str):
    result = imog.parse(f'model "M" {{ functional {{ {body} }} }}', "var.imog")
    assert result.ok, [d.message for d in result.diagnostics]
    return result.model


ROOT_TWO_OPTIONAL = 'feature R "r" { optional A optional B } feature A "a" feature B "b"'
ROOT_ALTERNATIVE = (
    'feature R "r" { alternative VP "pick" { A B C } } '
    'feature A "a" feature B "b" feature C "c"'
)
ROOT_MANDATORY = 'feature R "r" { mandatory M } feature M "m"'
ROOT_ORGROUP = 'feature R "r" { orgroup [1..2] { A B } } feature A "a" feature B "b"'


def test_analytic_counts():
    assert variability.count_configurations(parse_functional(ROOT_TWO_OPTIONAL)) == 4
    assert variability.count_configurations(parse_functional(ROOT_ALTERNATIVE)) == 3
    assert variability.count_configurations(parse_functional(ROOT_MANDATORY)) == 1
    assert variability.count_configurations(parse_functional(ROOT_ORGROUP)) == 3


def test_enumerate_mandatory_exact():
    configs = variability.enumerate_configurations(parse_functional(ROOT_MANDATORY))
    assert [set(c.selected) for c in configs] == [{"R", "M"}]


def test_enumerate_orgroup_members():
    configs = variability.enumerate_configurations(parse_functional(ROOT_ORGROUP))
    assert {frozenset(c.selected) for c in configs} == {
        frozenset({"R", "A"}),
        frozenset({"R", "B"}),
        frozenset({"R", "A", "B"}),
    }
    assert [c.sorted_ids() for c in configs] == sorted(
        c.sorted_ids() for c in configs
    )


def test_enumerate_respects_limit_and_canonical_order():
    model = parse_functional(ROOT_TWO_OPTIONAL)
    all_configs = variability.enumerate_configurations(model)
    assert [c.sorted_ids() for c in all_configs] == sorted(
        c.sorted_ids() for c in all_configs
    )
    assert variability.enumerate_configurations(model, 2) == all_configs[:2]


def test_enumerate_count_consistency_on_fixture(escooter):
    configs = variability.enumerate_configurations(escooter)
    assert len(configs) == variability.count_configurations(escooter)


def test_propagate_empty_decisions_forces_mandatory_chain():
    state = variability.propagate(parse_functional(ROOT_MANDATORY), {})
    assert state.conflict is None
    assert set(state.forced_in) == {"R", "M"}
    assert not state.open


def test_propagate_excludes_forces_out():
    model = parse_functional(
        'feature R "r" { optional A optional B } feature A "a" feature B "b" '
        "excludes A -> B"
    )
    state = variability.propagate(model, {"A": True})
    assert "B" in state.forced_out


def test_propagate_conflict_names_a_rule():
    model = parse_functional(ROOT_MANDATORY)
    state = variability.propagate(model, {"M": False})
    assert state.conflict is not None
    assert state.conflict.rule in ("mandatory", "root", "parent")


def test_propagate_unknown_element():
    with pytest.raises(UnknownElementError):
        variability.propagate(parse_functional(ROOT_MANDATORY), {"ghost": True})


def test_propagate_idempotent(escooter):
    state = variability.propagate(escooter, {"F_swap": True})
    decisions = {i: True for i in state.forced_in}
    decisions.update({i: False for i in state.forced_out})
    again = variability.propagate(escooter, decisions)
    assert again.forced_in == state.forced_in
    assert again.forced_out == state.forced_out
    assert again.open == state.open


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_propagate_idempotent_property(seed):
    rng = random.Random(seed)
    model = imog.parse(feature_model_text(rng, 10), "prop.imog").model
    state = variability.propagate(model, {})
    if state.conflict is not None:
        return
    decisions = {i: True for i in state.forced_in}
    decisions.update({i: False for i in state.forced_out})
    again = variability.propagate(model, decisions)
    assert (again.forced_in, again.forced_out, again.open) == (
        state.forced_in,
        state.forced_out,
        state.open,
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_partition_property(seed):
    rng = random.Random(seed)
    model = imog.parse(feature_model_text(rng, 10), "part.imog").model
    ids = {
        e.id
        for e in model.elements.values()
        if e.kind.value in ("feature", "function", "variation_point")
    }
    state = variability.propagate(model, {})
    assert state.forced_in | state.forced_out | state.open == ids
    assert not state.forced_in & state.forced_out
    assert not state.forced_in & state.open
    assert not state.forced_out & state.open


def test_dead_feature_forced_out_by_excludes():
    model = parse_functional(
        'feature R "r" { mandatory A optional C } feature A "a" feature C "c" '
        "excludes A -> C"
    )
    assert variability.dead_features(model) == {"C"}


def test_conflict_free_tree_has_no_dead_features(escooter):
    assert variability.dead_features(escooter) == set()


def test_budget_guard():
    body = 'feature R "r" { ' + " ".join(
        f"optional F{i}" for i in range(30)
    ) + " } " + " ".join(f'feature F{i} "f"' for i in range(30))
    model = parse_functional(body)
    with pytest.raises(BudgetExceededError) as exc:
        variability.count_configurations(model)
    assert exc.value.budget == 24
    assert exc.value.feature_count == 31
    small = parse_functional(ROOT_TWO_OPTIONAL)
    with pytest.raises(BudgetExceededError):
        variability.enumerate_configurations(small, budget=2)
    with pytest.raises(BudgetExceededError):
        variability.dead_features(small, budget=2)
    assert variability.count_configurations(small, budget=3) == 4


def test_count_on_deep_mandatory_chain_with_large_budget():
    # the search keeps one stack entry per feature, not one Python frame
    depth = 3000
    body = " ".join(
        f'feature F{i} "f" {{ mandatory F{i + 1} }}' for i in range(depth - 1)
    ) + f' feature F{depth - 1} "leaf"'
    model = parse_functional(body)
    assert variability.count_configurations(model, budget=depth) == 1
    (only,) = variability.enumerate_configurations(model, budget=depth)
    assert len(only.selected) == depth


def test_invalid_tree_rejected():
    model = parse_functional(
        'feature R "r" { mandatory C } feature G "g" { optional C } feature C "c"'
    )
    with pytest.raises(InvalidFeatureTreeError):
        variability.count_configurations(model)


def test_variant_combinations_fixture(escooter):
    assert (
        variability.variant_combinations(
            escooter, ["B_escooter", "B_driver", "B_roadway"]
        )
        == 8
    )
    assert variability.variant_combinations(escooter, ["B_imu"]) == 1
    assert variability.variant_combinations(escooter, []) == 1
    with pytest.raises(UnknownElementError):
        variability.variant_combinations(escooter, ["nope"])


def test_fixture_count_matches_committed_expectation(escooter):
    from conftest import golden_text

    assert variability.count_configurations(escooter) == int(
        golden_text("escooter.count.txt")
    )
    assert BruteForce(escooter).count() == 14


def test_monotonicity_adding_leaves():
    rng = random.Random(99)
    for _ in range(25):
        model = imog.parse(feature_model_text(rng, 10), "m.imog").model
        base = variability.count_configurations(model)
        nodes = sorted(
            e.id for e in model.elements.values() if e.kind.value == "feature"
        )
        parent = nodes[0]
        text = imog.print_model(model)
        with_optional = text.replace(
            f"feature {parent} ", f'feature NEW_L "leaf" feature {parent} ', 1
        )
        # attach as optional/mandatory child of the root by rewriting its body
        root_line = f"feature {parent} "
        assert root_line in text
        for keyword, check in (
            ("optional", lambda n: base <= n <= 2 * base),
            ("mandatory", lambda n: n == base),
        ):
            body = f'feature NEW_L "leaf"\n'
            patched = text.replace(
                "  functional {",
                f"  functional {{\n    {body.strip()}",
                1,
            )
            patched = _attach_child(patched, parent, keyword, "NEW_L")
            result = imog.parse(patched, "patched.imog")
            assert result.ok, [d.message for d in result.diagnostics]
            n = variability.count_configurations(result.model)
            assert check(n), (keyword, base, n, patched)


def _attach_child(text: str, parent: str, keyword: str, child: str) -> str:
    marker = f"feature {parent} "
    start = text.index(marker)
    line_end = text.index("\n", start)
    line = text[start:line_end]
    if line.rstrip().endswith("{"):
        return text[: line_end + 1] + f"      {keyword} {child}\n" + text[line_end + 1 :]
    return (
        text[:start]
        + line
        + " {\n      "
        + f"{keyword} {child}"
        + "\n    }"
        + text[line_end:]
    )


def test_oracle_equivalence_bulk():
    rng = random.Random(424242)
    for i in range(80):
        model = imog.parse(feature_model_text(rng, 12), f"bulk{i}.imog").model
        oracle = BruteForce(model)
        assert variability.count_configurations(model) == oracle.count()
        enum = variability.enumerate_configurations(model)
        assert [c.sorted_ids() for c in enum] == canonical_order(oracle.all_valid())
        assert variability.dead_features(model) == oracle.dead()


def test_propagate_matches_enumeration_filter():
    rng = random.Random(31337)
    for i in range(30):
        model = imog.parse(feature_model_text(rng, 10), f"prop{i}.imog").model
        oracle = BruteForce(model)
        ids = sorted(oracle.ids)
        decision_sets = [{}]
        decision_sets += [{x: True} for x in ids]
        decision_sets += [{x: False} for x in ids]
        for decisions in decision_sets:
            state = variability.propagate(model, decisions)
            forced_in, forced_out, satisfiable = oracle.forced(decisions)
            if not satisfiable:
                assert state.conflict is not None, (decisions, i)
            else:
                assert state.conflict is None, (decisions, state.conflict, i)
                assert set(state.forced_in) == forced_in
                assert set(state.forced_out) == forced_out
                assert set(state.open) == set(ids) - forced_in - forced_out


def test_format_configuration_record():
    model = parse_functional(ROOT_MANDATORY)
    config = variability.enumerate_configurations(model)[0]
    assert variability.format_configuration(model.name, config) == "M,M R"
