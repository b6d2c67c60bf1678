"""Views and exports: filter laws, graph grammar, table round-trip, scaffold."""

from __future__ import annotations

import csv
import io
import random

import pytest

import dotcheck
import imog
from conftest import FIXTURES, golden_text, parse_fixture
from genmodels import full_model_text
from imog import structurally_equal, views
from imog.model import AbstractionLevel as L
from imog.model import Perspective as P
from imog.printer import format_bound
from imog.resolve import validate

ALL_L = set(L)
ALL_P = set(P)


def test_filter_identity(escooter):
    assert structurally_equal(escooter, views.filter_view(escooter, ALL_L, ALL_P))


def test_filter_empty_sets_rejected(escooter):
    with pytest.raises(ValueError):
        views.filter_view(escooter, set(), ALL_P)
    with pytest.raises(ValueError):
        views.filter_view(escooter, ALL_L, set())


def test_single_level_views_partition_leveled_elements(escooter):
    leveled = {e.id for e in escooter.elements.values() if e.level is not None}
    seen: list[str] = []
    for level in L:
        view = views.filter_view(escooter, {level}, ALL_P)
        seen.extend(i for i in view.elements if i in leveled)
    assert sorted(seen) == sorted(leveled)


def test_filter_idempotent(escooter):
    once = views.filter_view(escooter, {L.SYSTEM}, {P.STRUCTURAL})
    twice = views.filter_view(once, {L.SYSTEM}, {P.STRUCTURAL})
    assert structurally_equal(once, twice)


def test_filter_commutes_with_intersection(escooter):
    a_levels = {L.CONTEXT, L.SYSTEM}
    b_levels = {L.SYSTEM, L.COMPONENT}
    a_persp = {P.FUNCTIONAL, P.STRUCTURAL, P.QUALITY}
    b_persp = {P.STRUCTURAL, P.KNOWLEDGE, P.QUALITY}
    nested = views.filter_view(
        views.filter_view(escooter, a_levels, a_persp), b_levels, b_persp
    )
    direct = views.filter_view(
        escooter, a_levels & b_levels, a_persp & b_persp
    )
    assert structurally_equal(nested, direct)


def test_context_structural_view_matches_figure(escooter):
    view = views.filter_view(escooter, {L.CONTEXT}, {P.STRUCTURAL})
    blocks = [e for e in view.elements.values() if e.kind.value == "block"]
    variants = [e for e in view.elements.values() if e.kind.value == "variant"]
    assert sorted(b.id for b in blocks) == ["B_driver", "B_escooter", "B_roadway"]
    assert len(variants) == 6
    effect_labels = [
        r.label for r in view.relations if r.kind.value == "effect"
    ]
    assert effect_labels == ["Incoming Forces", "weight"]


def test_views_are_checkable_models(escooter):
    view = views.filter_view(escooter, {L.CONTEXT}, {P.STRUCTURAL})
    diags = validate(view, partial=True)
    suppressed = {"R-202", "W-202", "W-203"}
    assert not [d for d in diags if d.code in suppressed]


def test_view_remaps_relation_spans(escooter):
    view = views.filter_view(escooter, {L.CONTEXT}, {P.STRUCTURAL})
    for index, rel in enumerate(view.relations):
        span = view.spans.get(index)
        assert span is not None
        # the span must point at the same statement the relation came from
        original_index = next(
            i for i, r in enumerate(escooter.relations) if r == rel
        )
        assert escooter.spans[original_index] == span
    for element_id in view.elements:
        assert view.spans.get(element_id) == escooter.spans.get(element_id)


def test_view_reprints_and_reparses(escooter):
    view = views.filter_view(escooter, {L.CONTEXT, L.SYSTEM}, ALL_P)
    printed = imog.print_model(view)
    reparsed = imog.parse(printed, "view.imog")
    assert reparsed.ok
    assert structurally_equal(view, reparsed.model)


# --- graph export ---------------------------------------------------------------


def test_empty_model_graph_is_grammar_valid():
    model = imog.parse('model "Empty" {}').model
    text = views.export_graph(model)
    stats = dotcheck.check(text)
    assert stats.name == "Empty"
    assert stats.nodes == [] and stats.edges == []


def test_context_view_graph_counts(escooter):
    text = views.export_graph(
        escooter, levels={L.CONTEXT}, perspectives={P.STRUCTURAL}
    )
    stats = dotcheck.check(text)
    assert len(stats.nodes) == 9  # 3 blocks + 6 variants
    effects = [
        a["label"]
        for a in stats.edge_attrs
        if a.get("label", "").startswith("<<effect>>")
    ]
    assert effects == ["<<effect>> Incoming Forces", "<<effect>> weight"]
    variant_labels = [
        attrs["label"]
        for node, attrs in stats.node_attrs.items()
        if attrs.get("label", "").startswith("<<Variant>>")
    ]
    assert len(variant_labels) == 6


def test_full_graph_golden_and_grammar(escooter):
    text = views.export_graph(escooter)
    assert text == golden_text("escooter.graph.dot")
    dotcheck.check(text)


def test_generated_model_graphs_pass_grammar_checker():
    rng = random.Random(606)
    for i in range(25):
        model = imog.parse(full_model_text(rng), f"g{i}.imog").model
        dotcheck.check(views.export_graph(model))


def test_fixture_graphs_pass_grammar_checker():
    from conftest import parse_fixture

    for name in ("escooter.imog", "conflict.imog", "conflicts_two.imog",
                 "kbref_late.imog"):
        model = parse_fixture(name).model
        dotcheck.check(views.export_graph(model))


# --- requirements table ---------------------------------------------------------


def test_table_header_only_without_requirements():
    model = imog.parse('model "M" {}').model
    assert views.export_requirements_table(model) == (
        "id,name,target,target_perspective,attribute,comparator,bound,unit,rationale\n"
    )


def test_table_direct_serialization():
    source = (
        'model "M" { functional { feature F2 "f" } '
        'quality { requirement R1 "Max weight" on F2 attr weight <= 25 kg } }'
    )
    model = imog.parse(source).model
    lines = views.export_requirements_table(model).splitlines()
    assert lines[1] == "R1,Max weight,F2,Functional,weight,<=,25,kg,"


def test_table_golden(escooter):
    assert views.export_requirements_table(escooter) == golden_text(
        "escooter.reqtable.csv"
    )


def test_table_roundtrip_machine_fields(escooter):
    text = views.export_requirements_table(escooter)
    parsed = views.parse_requirements_table(text)
    by_owner = {b.owner: b for b in parsed}
    for body in escooter.requirement_bodies:
        back = by_owner[body.owner]
        assert back.target == body.target
        assert back.attribute == body.attribute
        assert back.comparator == body.comparator
        assert back.unit == body.unit
        if body.comparator == "in":
            assert back.bound == tuple(float(x) for x in body.bound)
        elif body.bound is not None:
            assert float(back.bound) == float(body.bound)
        else:
            assert back.bound is None
    # and the re-export is byte-identical
    reexport_model = imog.Model(
        name=escooter.name,
        elements=escooter.elements,
        relations=escooter.relations,
        requirement_bodies=tuple(parsed),
        spans={},
    )
    assert views.export_requirements_table(reexport_model) == text


def _table_models():
    models = [parse_fixture(p.name).model for p in sorted(FIXTURES.glob("*.imog"))]
    rng = random.Random(1616)
    models += [imog.parse(full_model_text(rng)).model for _ in range(60)]
    return models


def test_table_bounds_read_back_as_parsed():
    tables = [golden_text("escooter.reqtable.csv")]
    for model in _table_models():
        table = views.export_requirements_table(model)
        parsed = {b.owner: b for b in views.parse_requirements_table(table)}
        for body in model.requirement_bodies:
            assert (parsed[body.owner].comparator or None) == body.comparator
            assert parsed[body.owner].bound == body.bound
        tables.append(table)
    for table in tables:  # and every bound is written back as it was
        cells = [row[6] for row in csv.reader(io.StringIO(table))][1:]
        assert [format_bound(b) for b in views.parse_requirements_table(table)] == cells


@pytest.mark.parametrize(
    "comparator, bound, reason",
    [
        ("<=", "1.5e3", "bad bound '1.5e3' for comparator '<='"),
        ("<=", "1e5", "bad bound '1e5' for comparator '<='"),
        (">=", "1_000", "bad bound '1_000' for comparator '>='"),
        ("==", " 7 ", "bad bound ' 7 ' for comparator '=='"),
        ("<", "٣", "bad bound '٣' for comparator '<'"),
        ("<", ".5", "bad bound '.5' for comparator '<'"),
        ("<=", "1..2", "bad bound '1..2' for comparator '<='"),
        ("<=", "", "bad bound '' for comparator '<='"),
        ("=<", "1", "bad bound '1' for comparator '=<'"),
        ("", "1", "bad bound '1' for comparator ''"),
        ("in", "inf..-inf", "bad bound 'inf..-inf' for comparator 'in'"),
        ("in", "1", "bad bound '1' for comparator 'in'"),
        ("in", "1..2..3", "bad bound '1..2..3' for comparator 'in'"),
        ("in", "2..1.5", "bad range '2..1.5': low > high"),
        (
            "<=",
            "9" * 400,
            "number with 400 digits before the point is out of range (below 1e308)",
        ),
    ],
)
def test_table_refuses_bounds_the_language_refuses(comparator, bound, reason):
    header = ",".join(views.TABLE_HEADER)
    good = "R0,n,B,Structural,w,<=,1,kg,"
    row = f'R1,n,B,Structural,w,{comparator},"{bound}",kg,'
    with pytest.raises(ValueError) as exc:
        views.parse_requirements_table(f"{header}\n{good}\n{row}\n")
    assert str(exc.value) == f"requirements table row 3: {reason}"


def test_table_short_row_names_its_row():
    with pytest.raises(ValueError, match=r"^requirements table row 2: not enough values"):
        views.parse_requirements_table(",".join(views.TABLE_HEADER) + "\nR1,n,B\n")


# --- roadmap scaffold -----------------------------------------------------------


def test_scaffold_empty_model_has_seven_not_started_sections():
    model = imog.parse('model "Empty" {}').model
    text = views.roadmap_scaffold(model)
    assert text.startswith("# Roadmap scaffold")
    assert len([l for l in text.splitlines() if l.startswith("## ")]) == 7
    assert text.count("Status: not started") == 7


def test_scaffold_section_order_and_leader(escooter):
    text = views.roadmap_scaffold(escooter)
    headings = [l for l in text.splitlines() if l.startswith("## ")]
    assert headings == [
        "## 1. Innovation Identification",
        "## 2. Feature and Function Identification",
        "## 3. Requirements Elicitation",
        "## 4. Solution Space Exploration",
        "## 5. Extraction and Saving of the Insights",
        "## 6. Roadmap Writing",
        "## 7. Maintain and Update",
    ]
    section4 = text.split("## 4. ")[1].split("## 5.")[0]
    assert "Leader: System Architect" in section4


def test_scaffold_golden_and_timeline_ascending(escooter):
    text = views.roadmap_scaffold(escooter)
    assert text == golden_text("escooter.roadmap.txt")
    timeline = text.split("Timeline:")[1].splitlines()
    years = [int(l.split()[0]) for l in timeline if l.strip() and l.startswith("  ")]
    assert years == sorted(years) == [2024, 2025]


def test_exports_deterministic(escooter):
    for exporter in (
        views.export_graph,
        views.export_requirements_table,
        views.roadmap_scaffold,
    ):
        assert exporter(escooter) == exporter(escooter)
