"""Resolution and validation rules, one scenario per catalog row."""

from __future__ import annotations

import random

import pytest

import imog
from genmodels import full_model_text
from imog.diagnostics import Severity
from imog.model import Element, ElementKind, Model, Relation, RelationKind
from imog.resolve import resolve, validate
from imog.trace import coverage_report
from valoracle import ValidationOracle


def wrap_functional(body: str) -> str:
    return f'model "M" {{ functional {{ {body} }} }}'


def parse_ok(source: str):
    result = imog.parse(source, "inline.imog")
    assert result.ok, [d.message for d in result.diagnostics]
    return result.model


def only_codes(diags):
    return [d.code for d in diags]


# --- resolve: R-101 -------------------------------------------------------------


def test_r101_names_the_missing_id():
    model = parse_ok(wrap_functional('feature F "f" { refines_goal G_missing }'))
    diags = resolve(model)
    assert only_codes(diags) == ["R-101"]
    assert "G_missing" in diags[0].elements
    assert "G_missing" in diags[0].message


def test_escooter_resolves_clean(escooter):
    assert resolve(escooter) == []


def test_kbref_to_store_entry_is_not_r101():
    model = parse_ok(
        'model "M" { structural { block B "b" level system { kbref K_elsewhere } } }'
    )
    assert resolve(model) == []


# --- resolve: R-102, one fixture per table row ----------------------------------

_R102_CASES = {
    "refines_goal": wrap_functional(
        'feature F "f" { refines_goal G } feature G "not a goal"'
    ),
    "constrains": (
        'model "M" { strategy { goal G "g" } '
        'quality { requirement R "r" on G } }'
    ),
    "allocate": (
        'model "M" { functional { feature F2 "a" { optional F3 } feature F3 "b" } '
        "structural { allocate F2 -> F3 } }"
    ),
    "kbref": (
        'model "M" { functional { feature F "f" } '
        'structural { block B "b" level system { kbref F } } }'
    ),
    "effect": (
        'model "M" { functional { feature F "f" } '
        'structural { block B "b" level system effect F -> B "push" } }'
    ),
    "channel": (
        'model "M" { functional { feature F "f" } '
        'structural { block B "b" level system channel F <-> B "bus" } }'
    ),
    "contains": (
        'model "M" { functional { feature F "f" } '
        'structural { block B "b" level system contains B { F } } }'
    ),
    "tree": (
        'model "M" { functional { feature F "f" { mandatory B } } '
        'structural { block B "b" level system } }'
    ),
}


@pytest.mark.parametrize("label", sorted(_R102_CASES))
def test_r102_illegal_edge_rows(label):
    model = parse_ok(_R102_CASES[label])
    diags = resolve(model)
    assert only_codes(diags) == ["R-102"], label


def test_r102_references_row_via_programmatic_model():
    elements = {
        "F": Element("F", ElementKind.FEATURE, "f"),
        "G": Element("G", ElementKind.GOAL, "g"),
    }
    model = Model(
        name="M",
        elements=elements,
        relations=(Relation(RelationKind.REFERENCES, "F", ("G",)),),
    )
    diags = resolve(model)
    assert only_codes(diags) == ["R-102", "R-102"]  # both endpoints wrong


def test_legal_edges_produce_no_r102(escooter):
    assert not [d for d in resolve(escooter) if d.code == "R-102"]


# --- validate: structure rules ---------------------------------------------------


def test_r201_two_parents():
    model = parse_ok(
        wrap_functional(
            'feature F "root" { mandatory C } '
            'feature G "other" { optional C } feature C "child"'
        )
    )
    diags = [d for d in validate(model) if d.code == "R-201"]
    assert len(diags) == 1
    assert diags[0].elements[0] == "C"


def test_r201_cycle_programmatic():
    elements = {
        "A": Element("A", ElementKind.FEATURE, "a"),
        "B": Element("B", ElementKind.FEATURE, "b"),
    }
    model = Model(
        name="M",
        elements=elements,
        relations=(
            Relation(RelationKind.MANDATORY, "A", ("B",)),
            Relation(RelationKind.MANDATORY, "B", ("A",)),
        ),
    )
    assert any(d.code == "R-201" for d in validate(model))


def test_r202_two_roots():
    model = parse_ok(wrap_functional('feature F "a" feature G "b"'))
    assert "R-202" in only_codes(validate(model))


def test_r202_skipped_for_views():
    model = parse_ok(wrap_functional('feature F "a" feature G "b"'))
    assert "R-202" not in only_codes(validate(model, partial=True))


def test_r203_contains_level_inversion():
    model = parse_ok(
        'model "M" { structural { '
        'block Fine "f" level component block Coarse "c" level context '
        "contains Fine { Coarse } } }"
    )
    diags = [d for d in validate(model) if d.code == "R-203"]
    assert len(diags) == 1
    assert diags[0].elements == ("Fine", "Coarse")


def test_contains_same_level_is_legal():
    model = parse_ok(
        'model "M" { structural { '
        'block A "a" level system block B "b" level system '
        "contains A { B } } }"
    )
    assert "R-203" not in only_codes(validate(model))


def test_w201_variation_point_under_orgroup():
    elements = {
        "F": Element("F", ElementKind.FEATURE, "f"),
        "A": Element("A", ElementKind.FEATURE, "a"),
        "VP": Element("VP", ElementKind.VARIATION_POINT, "vp"),
        "X": Element("X", ElementKind.FEATURE, "x"),
        "Y": Element("Y", ElementKind.FEATURE, "y"),
    }
    model = Model(
        name="M",
        elements=elements,
        relations=(
            Relation(RelationKind.OR_GROUP, "F", ("A", "VP"), cardinality=(1, 2)),
            Relation(RelationKind.ALTERNATIVE, "VP", ("X", "Y")),
        ),
    )
    diags = [d for d in validate(model) if d.code == "W-201"]
    assert len(diags) == 1
    assert "VP" in diags[0].elements


def test_single_feature_model_warnings():
    model = parse_ok(wrap_functional('feature F "only"'))
    diags = validate(model)
    w202 = [d for d in diags if d.code == "W-202"]
    assert [d.elements for d in w202] == [("F",)]
    i201 = [d for d in diags if d.code == "I-201"]
    messages = " ".join(d.message for d in i201)
    assert len(i201) == 4
    for name in ("strategy", "quality", "structural", "knowledge"):
        assert name in messages


def test_escooter_validate_counts(escooter):
    diags = validate(escooter)
    by_code = {}
    for d in diags:
        by_code.setdefault(d.code, []).append(d)
    assert sorted(d.elements[0] for d in by_code["W-202"]) == ["F_display", "F_fold"]
    assert sorted(d.elements[0] for d in by_code["W-203"]) == ["B_driver", "B_roadway"]
    assert [d.elements[0] for d in by_code["W-204"]] == ["R_comfort"]
    assert "W-205" not in by_code
    assert "I-201" not in by_code
    assert not [d for d in diags if d.severity is Severity.ERROR]


def test_w205_goal_never_referenced():
    model = parse_ok(
        'model "M" { strategy { goal G "lonely" } functional { feature F "f" } }'
    )
    diags = [d for d in validate(model) if d.code == "W-205"]
    assert [d.elements for d in diags] == [("G",)]


def test_diagnostic_order_is_deterministic_and_sorted(escooter):
    diags = validate(escooter)
    keys = [
        (d.span.file, d.span.start_line, d.span.start_col, d.code)
        for d in diags
        if d.span is not None
    ]
    assert keys == sorted(keys)
    assert validate(escooter) == diags


def test_validate_monotone_under_strategy_only_union(escooter):
    source = (
        'model "M" { functional { feature F "root" { optional G } feature G "g" } }'
    )
    base = parse_ok(source)
    extended = parse_ok(
        source.replace(
            'model "M" {', 'model "M" { strategy { goal GX "new goal" }'
        )
    )
    functional_codes = {"R-201", "R-202", "W-201", "W-202"}
    base_functional = [
        (d.code, d.elements) for d in validate(base) if d.code in functional_codes
    ]
    ext_functional = [
        (d.code, d.elements)
        for d in validate(extended)
        if d.code in functional_codes
    ]
    assert set(base_functional) <= set(ext_functional)


# --- oracle equivalence ----------------------------------------------------------


def _mutate(rng: random.Random, source: str) -> str:
    """Inject a defect into generated model text, sometimes."""
    roll = rng.random()
    if roll < 0.25 and "allocate" in source:
        return source.replace("allocate", "// allocate", 1)
    if roll < 0.4:
        head, _, _ = source.rpartition("}")
        return head + 'structural { effect GHOST -> GHOST2 "x" } }\n'
    return source


def _generated_models():
    """(text, model) of each generated, possibly defective model that parses."""
    rng = random.Random(20250810)
    for i in range(120):
        text = full_model_text(rng, max_elements=20)
        result = imog.parse(_mutate(rng, text), f"oracle{i}.imog")
        if result.model is not None:
            yield text, result.model


def test_rule_oracle_equivalence_on_generated_models():
    checked = 0
    for text, model in _generated_models():
        checked += 1
        diags = resolve(model) + validate(model)
        oracle = ValidationOracle(model)
        assert oracle.expects_clean() == (not diags), text
        flagged = lambda code: {
            d.elements[0] for d in diags if d.code == code and d.elements
        }
        assert flagged("W-202") == oracle.w202_unallocated()
        assert flagged("W-203") == oracle.w203_unmotivated()
        assert flagged("W-204") == oracle.w204_uncheckable()
        assert flagged("W-205") == oracle.w205_uncovered_goals()
        assert flagged("W-201") == {
            d.elements[1] for d in diags if d.code == "W-201"
        } or oracle.w201_vps() == {
            d.elements[1] for d in diags if d.code == "W-201"
        }
        assert sum(1 for d in diags if d.code == "I-201") == (
            oracle.i201_empty_perspectives()
        )
        assert {e for d in diags if d.code == "R-101" for e in (d.elements[0],)} == (
            oracle.r101_unresolved()
        )
        got_r203 = {
            (d.elements[0], d.elements[1]) for d in diags if d.code == "R-203"
        }
        assert got_r203 == oracle.r203_pairs()
    assert checked >= 100


def test_validate_and_trace_agree_on_generated_models():
    checked = unallocated = uncovered = 0
    for _, model in _generated_models():
        if resolve(model):
            continue
        checked += 1
        diags = validate(model)
        report = coverage_report(model)
        flagged = lambda code: {d.elements[0] for d in diags if d.code == code}
        assert flagged("W-202") == set(report.unallocated)
        assert flagged("W-205") == {
            goal for goal, refiners in report.goal_coverage.items() if not refiners
        }
        unallocated += bool(report.unallocated)
        uncovered += bool(flagged("W-205"))
    assert checked >= 80 and unallocated and uncovered
