"""Parser: fixtures, diagnostics, recovery, spans, determinism.

The differential tests at the end hold the parser to
`parser_reference`, the parser as it was before all brace bodies went
through one statement loop, on fixture, generated and damaged text.
"""

from __future__ import annotations

import random

import pytest

import imog
import parser_reference
from conftest import FIXTURES, parse_fixture
from genmodels import feature_model_text, full_model_text
from imog.diagnostics import Severity
from imog.lexer import KEYWORDS
from imog.model import AbstractionLevel, ElementKind, RelationKind
from imog.parser import _Parser, parse


def codes(result):
    return [d.code for d in result.diagnostics]


def test_escooter_parses_clean():
    result = parse_fixture("escooter.imog")
    assert result.ok
    assert result.diagnostics == []
    assert (
        result.model.lookup("F_root").name
        == "Providing mobility with an e-scooter"
    )


def test_empty_model():
    result = imog.parse('model "X" {}')
    assert result.ok
    assert result.diagnostics == []
    assert result.model.name == "X"
    assert not result.model.elements


def test_bad_cardinality_yields_p003_and_no_model():
    result = imog.parse(
        'model "M" { functional { feature F "f" { orgroup [3..2] { A B } } } }',
        "bad.imog",
    )
    assert result.model is None
    p003 = [d for d in result.diagnostics if d.code == "P-003"]
    assert len(p003) == 1
    assert p003[0].span is not None
    assert p003[0].span.start_line == 1


def test_duplicate_id_p002():
    result = imog.parse(
        'model "M" { strategy { goal G "a" goal G "b" } }'
    )
    assert result.model is None
    assert codes(result) == ["P-002"]


def test_property_redefinition_p004():
    result = imog.parse(
        'model "M" { strategy { goal G "a" { x: 1 x: 2 } } }'
    )
    assert result.model is None
    assert codes(result) == ["P-004"]


def test_unexpected_token_p001():
    result = imog.parse('model "M" { strategy { banana } }')
    assert result.model is None
    assert codes(result) == ["P-001"]


def test_single_corrupt_statement_recovers_once():
    source = """model "M" {
  strategy {
    goal G1 "first"
    gaol G2 "typo"
    goal G3 "third"
  }
  functional {
    feature F "root"
  }
}
"""
    result = imog.parse(source, "recover.imog")
    assert [d.code for d in result.diagnostics] == ["P-001"]
    assert result.model is None  # errors suppress the model...
    # ...but recovery still collected the rest of the file
    clean = imog.parse(source.replace('gaol G2 "typo"\n', ""), "recover.imog")
    assert set(clean.model.elements) == {"G1", "G3", "F"}


def test_recovery_keeps_processing_after_the_corrupt_statement():
    # the duplicate of G1 sits after the typo: catching it proves the
    # remainder of the file was parsed
    source = """model "M" {
  strategy {
    goal G1 "first"
    gaol G2 "typo"
    goal G1 "duplicate"
  }
}
"""
    result = imog.parse(source, "recover2.imog")
    assert [d.code for d in result.diagnostics] == ["P-001", "P-002"]


def test_recovery_skips_balanced_braces():
    source = """model "M" {
  functional {
    feature F "root" {
      orgroup [1..2 { A B }
    }
    feature G "next"
  }
}
"""
    result = imog.parse(source, "braces.imog")
    assert [d.code for d in result.diagnostics] == ["P-001"]


def test_parse_is_total_on_garbage():
    result = imog.parse("}{ %% not a model at all", "garbage.imog")
    assert result.model is None
    assert any(d.severity is Severity.ERROR for d in result.diagnostics)


def test_every_element_and_relation_has_a_span(escooter):
    for element_id in escooter.elements:
        assert element_id in escooter.spans
    for index in range(len(escooter.relations)):
        assert index in escooter.spans


def test_spans_are_one_based_and_ordered(escooter):
    for span in escooter.spans.values():
        assert span.start_line >= 1 and span.start_col >= 1
        assert (span.start_line, span.start_col) <= (span.end_line, span.end_col)


def test_variation_point_becomes_element_with_alternative(escooter):
    vp = escooter.lookup("VP_power")
    assert vp.kind is ElementKind.VARIATION_POINT
    assert vp.name == "Power source"
    alts = [
        r
        for r in escooter.relations
        if r.kind is RelationKind.ALTERNATIVE and r.source == "VP_power"
    ]
    assert len(alts) == 1
    assert alts[0].targets == ("F_liion", "F_leadacid")
    attach = [
        r
        for r in escooter.relations
        if r.kind is RelationKind.MANDATORY and r.targets == ("VP_power",)
    ]
    assert [r.source for r in attach] == ["F_root"]


def test_requirement_bodies_parsed(escooter):
    bodies = {b.owner: b for b in escooter.requirement_bodies}
    weight = bodies["R_weight"]
    assert (weight.attribute, weight.comparator, weight.bound, weight.unit) == (
        "weight",
        "<=",
        25,
        "kg",
    )
    assert weight.rationale == "Carrying the scooter up stairs must stay feasible."
    temp = bodies["R_temp"]
    assert temp.comparator == "in"
    assert temp.bound == (-10.0, 45.0)
    assert temp.unit == "C"
    assert not bodies["R_comfort"].machine_checkable


def test_in_range_low_above_high_is_p003():
    result = imog.parse(
        'model "M" { quality { requirement R "r" on F attr t in 9..3 } }'
    )
    assert "P-003" in codes(result)


def test_channel_properties_attach_to_relation(escooter):
    channels = [
        r for r in escooter.relations if r.kind is RelationKind.CHANNEL_LINK
    ]
    assert len(channels) == 1
    assert channels[0].label == "PWM drive signal"
    assert [(p.key, p.value, p.unit) for p in channels[0].properties] == [
        ("rate", 10, "kHz")
    ]


def test_contains_expands_to_single_target_relations(escooter):
    contains = [
        r
        for r in escooter.relations
        if r.kind is RelationKind.CONTAINS and r.source == "B_escooter"
    ]
    assert [r.targets for r in contains] == [
        ("B_motor",),
        ("B_battery",),
        ("B_ctrl",),
    ]


def test_keyword_cannot_be_identifier():
    result = imog.parse('model "M" { strategy { goal level "nope" } }')
    assert result.model is None
    assert "P-001" in codes(result)


def test_keywords_allowed_as_property_keys():
    result = imog.parse(
        'model "M" { structural { block B "b" level system { year: 2030 type: "x" } } }'
    )
    assert result.ok
    block = result.model.lookup("B")
    assert block.property_value("year") == 2030
    assert block.property_value("type") == "x"


def test_unit_lookahead_between_properties():
    result = imog.parse(
        'model "M" { strategy { goal G "g" { a: 1 kg b: 2 c: 3 m } } }'
    )
    assert result.ok
    props = {p.key: (p.value, p.unit) for p in result.model.lookup("G").properties}
    assert props == {"a": (1, "kg"), "b": (2, None), "c": (3, "m")}


def test_negative_numbers_and_ranges_lex_apart():
    result = imog.parse(
        'model "M" { quality { requirement R "r" on F attr t in -10..45 C } }'
    )
    assert result.ok
    body = result.model.requirement_bodies[0]
    assert body.bound == (-10.0, 45.0)


def test_comments_and_level_parse(escooter):
    assert escooter.lookup("F_root").level is AbstractionLevel.CONTEXT
    assert escooter.lookup("B_imu").level is AbstractionLevel.COMPONENT


def test_determinism_identical_input_identical_result():
    source = (
        'model "M" { functional { feature F "f" { optional G } feature G "g" } }'
    )
    first = imog.parse(source, "d.imog")
    second = imog.parse(source, "d.imog")
    assert first.diagnostics == second.diagnostics
    assert imog.structurally_equal(first.model, second.model)


# Each case: source, then (code, message, line, column) of every
# diagnostic. A later diagnostic shows where recovery resumed.
RECOVERY_CASES = {
    "model level": (
        """model "M" {
  banana 1
  strategy { goal G "g" goal G "h" }
}""",
        [
            ("P-001", "expected a section, found 'banana'", 2, 3),
            ("P-002", "duplicate id 'G'", 3, 25),
        ],
    ),
    "section": (
        """model "M" {
  strategy {
    banana 1
    goal G "g"
    goal G "h"
  }
}""",
        [
            ("P-001", "unexpected token 'banana'", 3, 5),
            ("P-002", "duplicate id 'G'", 5, 5),
        ],
    ),
    "feature body": (
        """model "M" {
  functional {
    feature F "f" {
      banana 1
      mandatory 2
    }
  }
}""",
        [
            ("P-001", "unexpected token 'banana'", 4, 7),
            ("P-001", "expected identifier, found '2'", 5, 17),
        ],
    ),
    "block body": (
        """model "M" {
  structural {
    block B "b" level system {
      banana 1
      variant V "v"
      variant V "w"
    }
  }
}""",
        [
            ("P-001", "unexpected token 'banana'", 4, 7),
            ("P-002", "duplicate id 'V'", 6, 7),
        ],
    ),
    "end of input in a section": (
        'model "M" {\n  strategy { goal G "g"',
        [
            ("P-001", "unexpected end of input, expected '}'", 2, 24),
            ("P-001", "unexpected end of input, expected '}'", 2, 24),
        ],
    ),
    "end of input in a feature body": (
        'model "M" {\n  functional { feature F "f" { mandatory A',
        [
            ("P-001", "unexpected end of input in feature body", 2, 43),
            ("P-001", "unexpected end of input, expected '}'", 2, 43),
            ("P-001", "unexpected end of input, expected '}'", 2, 43),
        ],
    ),
    "end of input in a block body": (
        'model "M" {\n  structural { block B "b" level system { kbref K',
        [
            ("P-001", "unexpected end of input in block body", 2, 50),
            ("P-001", "unexpected end of input, expected '}'", 2, 50),
            ("P-001", "unexpected end of input, expected '}'", 2, 50),
        ],
    ),
    "section keyword without a brace": (
        """model "M" {
  strategy goal G "g"
  functional { feature F "f" feature F "g" }
}""",
        [
            ("P-001", "expected '{', found 'goal'", 2, 12),
            ("P-002", "duplicate id 'F'", 3, 30),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(RECOVERY_CASES))
def test_recovery_wording_and_resume_point(case):
    source, expected = RECOVERY_CASES[case]
    result = imog.parse(source, "recover.imog")
    assert result.model is None
    assert [
        (d.code, d.message, d.span.start_line, d.span.start_col)
        for d in result.diagnostics
    ] == expected


def test_statement_words_are_reserved():
    # the statement loop dispatches on the lexeme alone, which is only
    # right because no identifier can spell a statement word; the lexer
    # cannot import the parser, so this keeps its KEYWORDS in step
    tables = [v for v in vars(_Parser).values() if isinstance(v, dict)]
    assert len(tables) == 8
    for table in tables:
        assert set(table) <= KEYWORDS
    statement_words = set().union(*tables)
    assert len(statement_words) == 26
    assert sorted(KEYWORDS - statement_words) == (
        "attr component context false in level model on system true type year".split()
    )


# --- differential tests against the reference parser ---


def _outcome(parse_fn, source: str):
    result = parse_fn(source, "diff.imog")
    model = result.model
    if model is None:
        return result.diagnostics, None
    return result.diagnostics, (
        model.name,
        list(model.elements.items()),
        model.relations,
        model.requirement_bodies,
        list(dict(model.spans).items()),
    )


def _same_as_reference(source: str) -> None:
    assert _outcome(parse, source) == _outcome(parser_reference.parse, source), repr(
        source
    )


def _corpus() -> list[str]:
    files = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    texts = [p.read_text(encoding="utf-8") for p in files]
    rng = random.Random(11)
    texts.extend(full_model_text(rng) for _ in range(30))
    texts.extend(feature_model_text(rng) for _ in range(15))
    return texts


# whole tokens, so that damage lands on statement boundaries, keywords
# in the wrong body and unbalanced braces
_DAMAGE = (
    *sorted(KEYWORDS),
    *("{", "}", "{ }", "[", "]", ":", "->", "<->", "..", "<=", "=="),
    *('"s"', '"', "1", "2.5", "-3", "F1", "X", "banana", "\n", "//"),
)


def _damage(rng: random.Random) -> str:
    return " ".join(rng.choice(_DAMAGE) for _ in range(rng.randint(0, 8)))


def test_fixtures_and_generated_models_match_reference():
    corpus = _corpus()
    assert len(corpus) >= 40 + 4
    for text in corpus:
        _same_as_reference(text)


def test_damaged_text_matches_reference():
    corpus = _corpus()
    rng = random.Random(12)
    for _ in range(1100):
        a, b = rng.choice(corpus), rng.choice(corpus)
        i = rng.randint(0, len(a))
        _same_as_reference(a[:i])
        j = min(len(a), i + rng.randint(0, 40))
        _same_as_reference(a[:i] + _damage(rng) + a[j:])
        _same_as_reference(a[:i] + b[rng.randint(0, len(b)) :])
