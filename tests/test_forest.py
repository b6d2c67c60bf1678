"""The feature-forest check shared by validate and variability."""

from __future__ import annotations

import random

from imog import variability
from imog.errors import InvalidFeatureTreeError
from imog.model import (
    Element,
    ElementKind,
    Model,
    Relation,
    RelationKind,
    TREE_ELEMENT_KINDS,
    TREE_KINDS,
    feature_forest,
)
from imog.resolve import validate
from oracle import BruteForce, cycle_reference, tree_error_reference
from valoracle import ValidationOracle

_TREE_ELEMENT_KINDS = sorted(TREE_ELEMENT_KINDS)
_TREE_RELATIONS = sorted(TREE_KINDS)


def _tree_relation(rng: random.Random, source: str, targets: list[str]) -> Relation:
    kind = rng.choice(_TREE_RELATIONS)
    if kind is RelationKind.MANDATORY:
        targets = targets[:1]
    cardinality = None
    if kind is RelationKind.OR_GROUP:
        lo = rng.randint(0, len(targets))
        cardinality = (lo, rng.randint(lo, len(targets)))
    return Relation(kind, source, tuple(targets), cardinality)


def _random_feature_graph(rng: random.Random) -> Model:
    """A random tree, then mutations that may break it.

    Mutations add a second parent, a back edge or a self-loop, drop an
    edge (a second root), or point tree edges at a block or a missing id.
    """
    ids = [f"N{i}" for i in range(rng.randint(0, 9))]
    edges = [(rng.choice(ids[:i]), ids[i]) for i in range(1, len(ids))]
    if ids and rng.random() < 0.4:
        edges.append((rng.choice(ids), rng.choice(ids)))  # second parent, cycle
    if ids and rng.random() < 0.15:
        node = rng.choice(ids)
        edges.append((node, node))
    if edges and rng.random() < 0.2:
        edges.remove(rng.choice(edges))
    if ids and rng.random() < 0.3:
        edges.append((rng.choice(ids), rng.choice(["B", "X"])))
    if ids and rng.random() < 0.2:
        edges.append((rng.choice(["B", "X"]), rng.choice(ids)))
    rng.shuffle(edges)

    relations: list[Relation] = []
    while edges:
        source = edges[0][0]
        same = [e for e in edges if e[0] == source]
        batch = same[: rng.randint(1, len(same))]
        for e in batch:
            edges.remove(e)
        relations.append(_tree_relation(rng, source, [c for _, c in batch]))
    for _ in range(rng.randint(0, 2)):
        if ids:
            kind = rng.choice((RelationKind.REQUIRES, RelationKind.EXCLUDES))
            target = rng.choice([*ids, "B"])
            relations.insert(
                rng.randint(0, len(relations)),
                Relation(kind, rng.choice(ids), (target,)),
            )

    elements = [
        Element(i, rng.choice(_TREE_ELEMENT_KINDS), i.lower()) for i in ids
    ]
    elements.append(Element("B", ElementKind.BLOCK, "b"))
    rng.shuffle(elements)
    return Model("M", {e.id: e for e in elements}, tuple(relations))


def _forest_diagnostics(model: Model):
    diags = validate(model)
    r201 = [d for d in diags if d.code == "R-201"]
    multi = {d.elements[0] for d in r201 if "parents" in d.message}
    cycles = [d for d in r201 if "cycle" in d.message]
    roots = {e for d in diags if d.code == "R-202" for e in d.elements}
    return multi, cycles, roots


def test_random_feature_graphs_match_oracles():
    rng = random.Random(4242)
    seen = {"multi": 0, "cycle": 0, "roots": 0, "valid": 0}
    for _ in range(1500):
        model = _random_feature_graph(rng)
        oracle = ValidationOracle(model)
        multi, cycles, roots = _forest_diagnostics(model)
        assert multi == oracle.r201_multiparents()
        assert roots == oracle.r202_roots()
        assert bool(cycles) == oracle.r201_has_cycle()
        reference = cycle_reference(model)
        if cycles:
            (diag,) = cycles
            assert diag.message == (
                "feature tree contains a cycle: " + " -> ".join(reference)
            )
            assert diag.elements == tuple(reference)
        else:
            assert reference is None
        assert not any(d.code == "R-202" for d in validate(model, partial=True))

        expected = tree_error_reference(model)
        invalid = bool(
            oracle.r201_multiparents()
            or oracle.r201_has_cycle()
            or oracle.r202_roots()
        )
        assert (expected is not None) == invalid
        try:
            count = variability.count_configurations(model)
        except InvalidFeatureTreeError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert count == BruteForce(model).count()
        seen["multi"] += bool(oracle.r201_multiparents())
        seen["cycle"] += oracle.r201_has_cycle()
        seen["roots"] += bool(oracle.r202_roots())
        seen["valid"] += not invalid
    assert min(seen.values()) >= 100, seen


def test_feature_forest_facts_in_declaration_order():
    elements = {
        i: Element(i, ElementKind.FEATURE, i.lower()) for i in ("R", "A", "C", "D")
    }
    elements["B"] = Element("B", ElementKind.BLOCK, "b")
    model = Model(
        "M",
        elements,
        (
            Relation(RelationKind.OPTIONAL, "R", ("C", "B", "A")),
            Relation(RelationKind.ALLOCATE, "A", ("B",)),
            Relation(RelationKind.MANDATORY, "A", ("C",)),
            Relation(RelationKind.OPTIONAL, "X", ("D",)),
        ),
    )
    forest = feature_forest(model)
    assert forest.nodes == ("R", "A", "C", "D")
    assert forest.edges == (("R", "C"), ("R", "A"), ("A", "C"))
    assert dict(forest.parents) == {"C": ("R", "A"), "A": ("R",)}
    assert forest.cycle is None
    assert forest.roots == ("R", "D")


def test_feature_forest_first_cycle_on_deep_chain():
    depth = 20000
    ids = [f"F{i}" for i in range(depth)]
    model = Model(
        "M",
        {i: Element(i, ElementKind.FEATURE, i) for i in ids},
        tuple(
            Relation(RelationKind.MANDATORY, ids[i], (ids[(i + 1) % depth],))
            for i in range(depth)
        ),
    )
    forest = feature_forest(model)
    assert forest.cycle == (*ids, ids[0])
    assert forest.roots == ()
