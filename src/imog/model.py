"""In-memory representation of an innovation model.

A Model is a grid of five perspectives (Strategy and Functional on the
problem side, Structural and Knowledge on the solution side, Quality on
both) crossed with three abstraction levels that act as filters. Elements
carry a single global id namespace; relations are typed edges between
ids. Models are immutable after construction: analyses build new ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Union

from .diagnostics import SourceSpan
from .errors import UnknownElementError


class Space(str, Enum):
    PROBLEM = "problem"
    SOLUTION = "solution"
    BOTH = "both"


class Perspective(str, Enum):
    STRATEGY = "strategy"
    FUNCTIONAL = "functional"
    QUALITY = "quality"
    STRUCTURAL = "structural"
    KNOWLEDGE = "knowledge"

    @property
    def space(self) -> Space:
        return _PERSPECTIVE_SPACE[self]


_PERSPECTIVE_SPACE = {
    Perspective.STRATEGY: Space.PROBLEM,
    Perspective.FUNCTIONAL: Space.PROBLEM,
    Perspective.QUALITY: Space.BOTH,
    Perspective.STRUCTURAL: Space.SOLUTION,
    Perspective.KNOWLEDGE: Space.SOLUTION,
}


class AbstractionLevel(str, Enum):
    """Coarse-to-fine filter rows; CONTEXT is the coarsest."""

    CONTEXT = "context"
    SYSTEM = "system"
    COMPONENT = "component"

    @property
    def rank(self) -> int:
        """0 = coarsest. A parent block must not be finer than its children."""
        return _LEVEL_RANK[self]


_LEVEL_RANK = {
    AbstractionLevel.CONTEXT: 0,
    AbstractionLevel.SYSTEM: 1,
    AbstractionLevel.COMPONENT: 2,
}


class ElementKind(str, Enum):
    GOAL = "goal"
    STAKEHOLDER = "stakeholder"
    STRATEGY_NOTE = "note"
    FEATURE = "feature"
    FUNCTION = "function"
    VARIATION_POINT = "variation_point"
    REQUIREMENT = "requirement"
    BLOCK = "block"
    VARIANT = "variant"
    KNOWLEDGE_ENTRY = "entry"


# Total: every kind belongs to exactly one perspective.
KIND_PERSPECTIVE: dict[ElementKind, Perspective] = {
    ElementKind.GOAL: Perspective.STRATEGY,
    ElementKind.STAKEHOLDER: Perspective.STRATEGY,
    ElementKind.STRATEGY_NOTE: Perspective.STRATEGY,
    ElementKind.FEATURE: Perspective.FUNCTIONAL,
    ElementKind.FUNCTION: Perspective.FUNCTIONAL,
    ElementKind.VARIATION_POINT: Perspective.FUNCTIONAL,
    ElementKind.REQUIREMENT: Perspective.QUALITY,
    ElementKind.BLOCK: Perspective.STRUCTURAL,
    ElementKind.VARIANT: Perspective.STRUCTURAL,
    ElementKind.KNOWLEDGE_ENTRY: Perspective.KNOWLEDGE,
}


class RelationKind(str, Enum):
    MANDATORY = "mandatory"
    OPTIONAL = "optional"
    OR_GROUP = "orgroup"
    ALTERNATIVE = "alternative"
    REQUIRES = "requires"
    EXCLUDES = "excludes"
    REFERENCES = "references"
    CONSTRAINS = "constrains"
    ALLOCATE = "allocate"
    EFFECT = "effect"
    CHANNEL_LINK = "channel"
    CONTAINS = "contains"
    REFINES_GOAL = "refines_goal"
    KB_REF = "kbref"


# Parent-child edges of the feature tree.
TREE_KINDS = frozenset(
    {
        RelationKind.MANDATORY,
        RelationKind.OPTIONAL,
        RelationKind.OR_GROUP,
        RelationKind.ALTERNATIVE,
    }
)

# Element kinds that may appear in the feature tree.
TREE_ELEMENT_KINDS = frozenset(
    {ElementKind.FEATURE, ElementKind.FUNCTION, ElementKind.VARIATION_POINT}
)


@dataclass(frozen=True)
class FeatureForest:
    """Shape of a model's feature tree, every sequence in declaration order.

    The tree is well formed iff no child has two parents, cycle is None
    and there is at most one root.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (parent, child)
    parents: Mapping[str, tuple[str, ...]]  # per child, repeats kept
    cycle: tuple[str, ...] | None  # first cycle found, closed: a, b, a
    roots: tuple[str, ...]


def feature_forest(model: Model) -> FeatureForest:
    """Nodes, edges, parents, first cycle and roots of the feature tree.

    Edges come from tree relations whose source and target are both
    tree elements; others are left to resolve. The cycle search is a
    depth-first walk with an explicit stack, over nodes in element
    order and children in edge order. Cost: O(tree nodes + tree edges).
    """
    nodes = tuple(
        e.id for e in model.elements.values() if e.kind in TREE_ELEMENT_KINDS
    )
    node_set = set(nodes)
    edges: list[tuple[str, str]] = []
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {}
    for rel in model.relations:
        if rel.kind not in TREE_KINDS or rel.source not in node_set:
            continue
        for child in rel.targets:
            if child in node_set:
                edges.append((rel.source, child))
                parents.setdefault(child, []).append(rel.source)
                children.setdefault(rel.source, []).append(child)
    return FeatureForest(
        nodes,
        tuple(edges),
        {child: tuple(ps) for child, ps in parents.items()},
        _first_cycle(nodes, children),
        tuple(n for n in nodes if n not in parents),
    )


def _first_cycle(
    nodes: tuple[str, ...], children: dict[str, list[str]]
) -> tuple[str, ...] | None:
    on_path: dict[str, bool] = {}  # visited ids; False once finished
    for start in nodes:
        if start in on_path:
            continue
        path = [start]
        on_path[start] = True
        pending = [iter(children.get(start, ()))]  # one iterator per path node
        while pending:
            for child in pending[-1]:
                if on_path.get(child):
                    return (*path[path.index(child) :], child)
                if child not in on_path:
                    path.append(child)
                    on_path[child] = True
                    pending.append(iter(children.get(child, ())))
                    break
            else:
                pending.pop()
                on_path[path.pop()] = False
    return None


PropertyValue = Union[int, float, str, bool]


@dataclass(frozen=True)
class Property:
    key: str
    value: PropertyValue
    unit: str | None = None  # only meaningful for numeric values


@dataclass(frozen=True)
class Element:
    id: str
    kind: ElementKind
    name: str
    level: AbstractionLevel | None = None
    properties: tuple[Property, ...] = ()

    @property
    def perspective(self) -> Perspective:
        return KIND_PERSPECTIVE[self.kind]

    @property
    def description(self) -> str | None:
        """Prose attached via a text property named `description`."""
        for p in self.properties:
            if p.key == "description" and isinstance(p.value, str):
                return p.value
        return None

    def property_value(self, key: str) -> PropertyValue | None:
        for p in self.properties:
            if p.key == key:
                return p.value
        return None


@dataclass(frozen=True)
class Relation:
    kind: RelationKind
    source: str
    targets: tuple[str, ...]
    cardinality: tuple[int, int] | None = None  # or-groups only
    label: str | None = None
    properties: tuple[Property, ...] = ()  # channels only

    def endpoints(self) -> tuple[str, ...]:
        return (self.source, *self.targets)


Bound = Union[int, float, tuple[float, float]]


@dataclass(frozen=True)
class RequirementBody:
    """The checkable payload of one requirement-table row."""

    owner: str
    target: str
    attribute: str | None = None
    comparator: str | None = None  # <=, >=, ==, <, >, in
    bound: Bound | None = None  # pair iff comparator == "in"
    unit: str | None = None
    rationale: str | None = None

    @property
    def machine_checkable(self) -> bool:
        return (
            self.attribute is not None
            and self.comparator is not None
            and self.bound is not None
        )


SpanKey = Union[str, int]  # element id, or index into Model.relations


class ModelIndex:
    """Lookup tables over one model's relations and requirement bodies.

    Every list keeps declaration order; relation lists hold
    (index into Model.relations, relation) pairs. Built in
    O(relations + bodies); readers must not mutate it.
    """

    def __init__(self, model: Model) -> None:
        self.by_source: dict[str, list[tuple[int, Relation]]] = {}
        self.by_target: dict[str, list[tuple[int, Relation]]] = {}
        self.bodies_by_target: dict[str, list[RequirementBody]] = {}
        # sources of `contains` edges per contained id, dangling ones dropped
        self.parents: dict[str, list[str]] = {}
        # effective-requirement lists, filled lazily by imog.trace; ids in
        # path_independent have lists that are valid inside any walk. A
        # list is stored only when complete and before its id joins that
        # set, so concurrent analyses of one model at worst repeat work.
        self.effective: dict[str, list] = {}
        self.path_independent: set[str] = set()
        for i, rel in enumerate(model.relations):
            self.by_source.setdefault(rel.source, []).append((i, rel))
            for target in dict.fromkeys(rel.targets):  # once per relation
                self.by_target.setdefault(target, []).append((i, rel))
            if (
                rel.kind is RelationKind.CONTAINS
                and rel.targets
                and rel.source in model.elements
            ):
                self.parents.setdefault(rel.targets[0], []).append(rel.source)
        for body in model.requirement_bodies:
            self.bodies_by_target.setdefault(body.target, []).append(body)

    def outgoing(self, element_id: str, *kinds: RelationKind) -> list[Relation]:
        """Relations with the id as source and one of the kinds."""
        return [
            rel for _, rel in self.by_source.get(element_id, ()) if rel.kind in kinds
        ]

    def incoming(self, element_id: str, *kinds: RelationKind) -> list[Relation]:
        """Relations of one of the kinds whose first target is the id."""
        return [
            rel
            for _, rel in self.by_target.get(element_id, ())
            if rel.kind in kinds and rel.targets[0] == element_id
        ]


@dataclass(frozen=True)
class Model:
    name: str
    elements: Mapping[str, Element] = field(default_factory=dict)
    relations: tuple[Relation, ...] = ()
    requirement_bodies: tuple[RequirementBody, ...] = ()
    spans: Mapping[SpanKey, SourceSpan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # read-only copies: the cached index must never go stale
        object.__setattr__(self, "elements", MappingProxyType(dict(self.elements)))
        object.__setattr__(self, "spans", MappingProxyType(dict(self.spans)))

    def __reduce__(self):
        # mapping proxies cannot be pickled or deep-copied; the index is
        # rebuilt on first use
        return (
            Model,
            (
                self.name,
                dict(self.elements),
                self.relations,
                self.requirement_bodies,
                dict(self.spans),
            ),
        )

    @cached_property
    def index(self) -> ModelIndex:
        return ModelIndex(self)

    def lookup(self, element_id: str) -> Element | None:
        return self.elements.get(element_id)

    def relations_of(
        self, element_id: str, kind: RelationKind | None = None
    ) -> list[Relation]:
        """All relations touching the id, in declaration order."""
        if element_id not in self.elements:
            raise UnknownElementError(element_id)
        index = self.index
        touching = dict(index.by_source.get(element_id, ()))
        touching.update(index.by_target.get(element_id, ()))
        return [
            touching[i]
            for i in sorted(touching)
            if kind is None or touching[i].kind is kind
        ]

    def elements_of_kind(self, *kinds: ElementKind) -> list[Element]:
        wanted = set(kinds)
        return [e for e in self.elements.values() if e.kind in wanted]

    def elements_of_perspective(self, perspective: Perspective) -> list[Element]:
        return [
            e for e in self.elements.values() if e.perspective is perspective
        ]

    def span_of(self, key: SpanKey) -> SourceSpan | None:
        return self.spans.get(key)


def structurally_equal(a: Model, b: Model) -> bool:
    """Equality modulo spans and statement interleaving.

    Elements are compared as an id-keyed map, relations and requirement
    bodies as multisets: the canonical printer normalizes section order
    and statement grouping, both of which the grammar leaves free.
    """
    if a.name != b.name:
        return False
    if dict(a.elements) != dict(b.elements):
        return False
    if sorted(a.relations, key=_relation_key) != sorted(
        b.relations, key=_relation_key
    ):
        return False
    return sorted(a.requirement_bodies, key=repr) == sorted(
        b.requirement_bodies, key=repr
    )


def _relation_key(rel: Relation) -> str:
    return repr(rel)


# --- process steps and roles -------------------------------------------------


class Role(str, Enum):
    COMMITTEE_LEADER = "Committee Leader"
    CORPORATION_REPRESENTATIVE = "Corporation Representative"
    IMOG_MODEL_EXPERT = "IMoG Model Expert"
    COMMITTEE_ROADMAP_MANAGER = "Committee Roadmap Manager"
    ROADMAP_MANAGER = "Roadmap Manager"
    REQUIREMENTS_ENGINEER = "Requirements Engineer"
    SYSTEM_ARCHITECT = "System Architect"
    DOMAIN_EXPERT = "Domain Expert"


# In-house specializations of the corporation representative, as opposed to
# standing committee roles.
IN_HOUSE_ROLES = frozenset(
    {
        Role.ROADMAP_MANAGER,
        Role.REQUIREMENTS_ENGINEER,
        Role.SYSTEM_ARCHITECT,
        Role.DOMAIN_EXPERT,
    }
)


class ProcessStep(str, Enum):
    INNOVATION_IDENTIFICATION = "Innovation Identification"
    FEATURE_FUNCTION_IDENTIFICATION = "Feature and Function Identification"
    REQUIREMENTS_ELICITATION = "Requirements Elicitation"
    SOLUTION_SPACE_EXPLORATION = "Solution Space Exploration"
    INSIGHT_EXTRACTION = "Extraction and Saving of the Insights"
    ROADMAP_WRITING = "Roadmap Writing"
    MAINTAIN_AND_UPDATE = "Maintain and Update"


PROCESS_ORDER: tuple[ProcessStep, ...] = tuple(ProcessStep)

# Marker artifact for the two steps that produce the roadmap document
# itself rather than a perspective.
ROADMAP_DOCUMENT = "Roadmap Document"


@dataclass(frozen=True)
class StepInfo:
    step: ProcessStep
    roles: frozenset[Role]
    artifact: Union[Perspective, str]
    leader: Role | None = None


_STEP_TABLE: dict[ProcessStep, StepInfo] = {
    ProcessStep.INNOVATION_IDENTIFICATION: StepInfo(
        ProcessStep.INNOVATION_IDENTIFICATION,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.IMOG_MODEL_EXPERT,
                Role.CORPORATION_REPRESENTATIVE,
                Role.ROADMAP_MANAGER,
                Role.DOMAIN_EXPERT,
            }
        ),
        Perspective.STRATEGY,
    ),
    ProcessStep.FEATURE_FUNCTION_IDENTIFICATION: StepInfo(
        ProcessStep.FEATURE_FUNCTION_IDENTIFICATION,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.IMOG_MODEL_EXPERT,
                Role.CORPORATION_REPRESENTATIVE,
                Role.REQUIREMENTS_ENGINEER,
            }
        ),
        Perspective.FUNCTIONAL,
    ),
    ProcessStep.REQUIREMENTS_ELICITATION: StepInfo(
        ProcessStep.REQUIREMENTS_ELICITATION,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.IMOG_MODEL_EXPERT,
                Role.CORPORATION_REPRESENTATIVE,
                Role.REQUIREMENTS_ENGINEER,
            }
        ),
        Perspective.QUALITY,
    ),
    ProcessStep.SOLUTION_SPACE_EXPLORATION: StepInfo(
        ProcessStep.SOLUTION_SPACE_EXPLORATION,
        frozenset(
            {
                Role.SYSTEM_ARCHITECT,
                Role.REQUIREMENTS_ENGINEER,
                Role.DOMAIN_EXPERT,
            }
        ),
        Perspective.STRUCTURAL,
        leader=Role.SYSTEM_ARCHITECT,
    ),
    ProcessStep.INSIGHT_EXTRACTION: StepInfo(
        ProcessStep.INSIGHT_EXTRACTION,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.IMOG_MODEL_EXPERT,
                Role.CORPORATION_REPRESENTATIVE,
            }
        ),
        Perspective.KNOWLEDGE,
    ),
    ProcessStep.ROADMAP_WRITING: StepInfo(
        ProcessStep.ROADMAP_WRITING,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.CORPORATION_REPRESENTATIVE,
                Role.COMMITTEE_ROADMAP_MANAGER,
                Role.ROADMAP_MANAGER,
            }
        ),
        ROADMAP_DOCUMENT,
        leader=Role.COMMITTEE_ROADMAP_MANAGER,
    ),
    ProcessStep.MAINTAIN_AND_UPDATE: StepInfo(
        ProcessStep.MAINTAIN_AND_UPDATE,
        frozenset(
            {
                Role.COMMITTEE_LEADER,
                Role.CORPORATION_REPRESENTATIVE,
                Role.COMMITTEE_ROADMAP_MANAGER,
                Role.ROADMAP_MANAGER,
            }
        ),
        ROADMAP_DOCUMENT,
        leader=Role.COMMITTEE_ROADMAP_MANAGER,
    ),
}


def step_info(step: ProcessStep) -> StepInfo:
    """Static role/artifact table row for one process step."""
    return _STEP_TABLE[step]
