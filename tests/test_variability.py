"""Configuration semantics against the brute-force subset interpreter."""

from __future__ import annotations

import random
import time

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
from imog.model import (
    Element,
    ElementKind,
    Model,
    Relation,
    RelationKind,
    TREE_ELEMENT_KINDS,
    TREE_KINDS,
)
from oracle import BruteForce, canonical_order
import variability_reference as reference


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


# --- the compiled engine against the brute force and the old backtracker ---

_TREE_ELEMENT_KINDS = sorted(TREE_ELEMENT_KINDS)
_TREE_KINDS = sorted(TREE_KINDS)


def _tree_ids(model: Model) -> list[str]:
    return sorted(e.id for e in model.elements.values() if e.kind in TREE_ELEMENT_KINDS)


def _random_tree_model(
    rng: random.Random,
    lo: int,
    hi: int,
    *,
    swaps: int | None = None,
) -> Model:
    """A valid feature tree of lo..hi nodes as a programmatic model.

    With swaps=None ids are drawn at random, so sorted order, tree order
    and declaration order all differ; otherwise sorted order is tree
    order with that many random swaps (the old backtracker only prunes
    well near tree order). Children come in mandatory, optional, or-group
    (any cardinality, rarely one no selection meets, or none) and
    alternative relations; requires/excludes include self-loops, and some
    roots are made unsatisfiable.
    """
    count = rng.randint(lo, hi)
    ids = rng.sample([f"{c}{k}" for c in "ABCDEFGH" for k in range(12)], count)
    if swaps is not None:
        ids.sort()
        for _ in range(swaps):
            i, j = rng.randrange(count), rng.randrange(count)
            ids[i], ids[j] = ids[j], ids[i]
    children: dict[str, list[str]] = {}
    for i in range(1, count):
        children.setdefault(rng.choice(ids[:i]), []).append(ids[i])
    relations: list[Relation] = []
    for parent, kids in children.items():
        rng.shuffle(kids)
        while kids:
            kind = rng.choice(_TREE_KINDS)
            single = kind in (RelationKind.MANDATORY, RelationKind.OPTIONAL)
            take = 1 if single else rng.randint(1, len(kids))
            batch, kids = tuple(kids[:take]), kids[take:]
            cardinality = None
            if kind is RelationKind.OR_GROUP and rng.random() < 0.8:
                low = rng.randint(0, len(batch))
                cardinality = (low, rng.randint(low, len(batch)))
                if rng.random() < 0.1:
                    cardinality = rng.choice(((2, 1), (len(batch) + 1,) * 2))
            relations.append(Relation(kind, parent, batch, cardinality))
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice((RelationKind.REQUIRES, RelationKind.EXCLUDES))
        a = rng.choice(ids)
        b = a if rng.random() < 0.15 else rng.choice(ids)
        relations.append(Relation(kind, a, (b,)))
    if rng.random() < 0.05:
        relations.append(Relation(RelationKind.EXCLUDES, ids[0], (ids[0],)))
    rng.shuffle(relations)
    elements = [Element(i, rng.choice(_TREE_ELEMENT_KINDS), i.lower()) for i in ids]
    elements.append(Element("BLK", ElementKind.BLOCK, "b"))
    rng.shuffle(elements)
    return Model("M", {e.id: e for e in elements}, tuple(relations))


def _decision_sets(
    rng: random.Random, ids: list[str], singles: bool, pairs: int
) -> list[dict]:
    sets: list[dict] = [{}]
    if singles:
        sets += [{x: v} for x in ids for v in (True, False)]
    for _ in range(pairs if len(ids) > 1 else 0):
        a, b = rng.sample(ids, 2)
        sets.append({a: rng.random() < 0.5, b: rng.random() < 0.5})
    return sets


def test_compiled_engine_matches_brute_force():
    rng = random.Random(8080)
    for i in range(150):
        model = _random_tree_model(rng, 1, 12)
        valid = BruteForce(model).all_valid()
        expected = canonical_order(valid)
        ids = _tree_ids(model)
        assert variability.count_configurations(model) == len(valid), i
        for limit in (None, 0, 1, 10):
            configs = variability.enumerate_configurations(model, limit)
            assert [c.sorted_ids() for c in configs] == expected[:limit], (i, limit)
        alive = set().union(*valid)
        assert variability.dead_features(model) == set(ids) - alive, i
        for decisions in _decision_sets(rng, ids, True, 10):
            state = variability.propagate(model, decisions)
            extensions = [
                c for c in valid if all((x in c) == v for x, v in decisions.items())
            ]
            assert (state.conflict is None) == bool(extensions), (i, decisions)
            if extensions:
                assert state.forced_in == frozenset.intersection(*extensions)
                assert state.forced_out == set(ids) - frozenset.union(*extensions)


def test_compiled_engine_matches_reference():
    # the old backtracker builds its rule closures again for every probe,
    # which makes it slow: every tree is compared on one limit in turn
    # and the empty selection, every 50th tree on every single decision
    # and ten random pairs. Its dead features are the ids
    # missing from its configurations (dead_features probes each id with
    # the same search), checked against dead_features on every 100th tree.
    rng = random.Random(9090)
    for i in range(1000):
        model = _random_tree_model(rng, 13, 20, swaps=rng.randint(0, 3))
        ids = _tree_ids(model)
        everything = reference.enumerate_configurations(model)
        assert variability.count_configurations(model) == len(everything), i
        assert variability.enumerate_configurations(model) == everything, i
        limit = (0, 1, 10)[i % 3]
        assert variability.enumerate_configurations(model, limit) == everything[:limit], i
        dead = set(ids) - {x for c in everything for x in c.selected}
        assert variability.dead_features(model) == dead, i
        if i % 100 == 0:
            assert dead == reference.dead_features(model), i
        sample = i % 50 == 0
        for decisions in _decision_sets(rng, ids, sample, 10 if sample else 0):
            state = variability.propagate(model, decisions)
            expected = reference.propagate(model, decisions)
            assert (state.conflict is None) == (expected.conflict is None), (i, decisions)
            if expected.conflict is None or expected.conflict.rule == "unsatisfiable":
                assert state == expected, (i, decisions)
            else:  # unit propagation found it; which rule first may differ
                assert state.conflict.rule != "unsatisfiable", (i, decisions)


def test_unit_propagation_matches_reference_beyond_the_budget():
    # budget=0 returns the fixpoint alone, which the worklist must reach
    rng = random.Random(7070)
    for i in range(60):
        model = _random_tree_model(rng, 5, 30)
        ids = _tree_ids(model)
        for decisions in _decision_sets(rng, ids, True, 10):
            state = variability.propagate(model, decisions, budget=0)
            expected = reference.propagate(model, decisions, budget=0)
            assert (state.conflict is None) == (expected.conflict is None), (i, decisions)
            if expected.conflict is None:
                assert state == expected, (i, decisions)


def test_wide_star_counts_and_enumerates_without_search():
    # 2**23 configurations: the backtracker took minutes to count them
    k = 23
    ids = [f"F{i:02d}" for i in range(k)]
    model = parse_functional(
        'feature R "r" { '
        + " ".join(f"optional {i}" for i in ids)
        + " } "
        + " ".join(f'feature {i} "f"' for i in ids)
    )
    assert variability.count_configurations(model) == 2**k
    # every configuration holding F00..F18 precedes every one without F18
    # (F18 sorts before F19..F22 and R), so the first 10 are the first 10
    # of the 16 choices over F19..F22
    tails = [
        tuple(f for bit, f in enumerate(ids[19:]) if mask >> bit & 1)
        for mask in range(16)
    ]
    expected = sorted((*ids[:19], *tail, "R") for tail in tails)[:10]
    first = variability.enumerate_configurations(model, 10)
    assert [c.sorted_ids() for c in first] == expected


def test_negative_enumeration_limit_is_rejected():
    with pytest.raises(ValueError):
        variability.enumerate_configurations(parse_functional(ROOT_MANDATORY), -1)


def test_unit_propagation_ignores_declaration_order():
    # a rescan per pass moved one level per pass on a leaf-first chain
    depth = 3000
    parts = [
        f'feature F{i} "f" {{ mandatory F{i + 1} }}' for i in range(depth - 1)
    ] + [f'feature F{depth - 1} "leaf"']
    timings = []
    for order in (parts, parts[::-1]):
        model = parse_functional(" ".join(order))
        start = time.perf_counter()
        state = variability.propagate(model, {"F1": True}, budget=0)
        timings.append(time.perf_counter() - start)
        assert len(state.forced_in) == depth and not state.open
    assert max(timings) < 2 * min(timings) + 0.05, timings
