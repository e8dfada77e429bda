"""Canonical JSON forms for inputs and reports.

Every number crossing the JSON boundary is an exact rational rendered
as a "p/q" string (plain JSON integers are accepted on input; floats
are rejected). Serialization is canonical: keys sorted, two-space
indent, trailing newline, so equal payloads are byte-identical.
"""

from __future__ import annotations

import json
import string

from .composites import BipartiteState, SeparabilityResult
from .compatibility import JmResult, MotherObservable
from .errors import SchemaError
from .kernel import Observable, State, StateSpace, zoo_by_name
from .ratio import Rational, as_ratio, format_ratio, parse_ratio
from .steering import (Assemblage, LhsLambda, LhsModel, LhsResult,
                       TheoremReport)

SCHEMA = "gptsteer/1"


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def ratio_to_json(value: Rational) -> str:
    return format_ratio(value)


def ratio_from_json(value) -> Rational:
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean")
    if isinstance(value, int):
        return as_ratio(value)
    if isinstance(value, str):
        try:
            return parse_ratio(value)
        except ValueError as err:
            raise SchemaError(str(err)) from err
    raise SchemaError(f"expected a rational as 'p/q' or integer, got {value!r}")


def vec_to_json(vec) -> list:
    return [ratio_to_json(c) for c in vec]


def vec_from_json(value) -> tuple:
    if not isinstance(value, list):
        raise SchemaError("expected a list of rationals")
    return tuple(ratio_from_json(c) for c in value)


def _require(obj, key: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object with key {key!r}")
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    return obj[key]


def _check_schema(obj) -> None:
    tag = _require(obj, "schema")
    if tag != SCHEMA:
        raise SchemaError(f"unsupported schema {tag!r}, expected {SCHEMA!r}")


def space_to_json(space: StateSpace) -> dict:
    return {"label": space.label,
            "vertices": [vec_to_json(v) for v in space.vertices]}


def space_from_json(obj) -> StateSpace:
    label = _require(obj, "label")
    vertices = _require(obj, "vertices")
    if not isinstance(vertices, list) or not vertices:
        raise SchemaError("vertices must be a nonempty list")
    parsed = tuple(vec_from_json(v) for v in vertices)
    try:
        return StateSpace(label=str(label), ambient_dim=len(parsed[0]),
                          vertices=parsed)
    except ValueError as err:
        raise SchemaError(f"invalid state space: {err}") from err


def resolve_space(spec) -> StateSpace:
    """A zoo name or an inline space object."""
    if isinstance(spec, str):
        try:
            return zoo_by_name(spec)
        except ValueError as err:
            raise SchemaError(str(err)) from err
    if isinstance(spec, dict):
        return space_from_json(spec)
    raise SchemaError("space must be a zoo name or an object")


def _doc_space(obj, space: StateSpace | None) -> StateSpace:
    """The document's own space, else the one given on the command line."""
    if isinstance(obj, dict) and "space" in obj:
        if space is not None:
            raise SchemaError("space given both in the file and on the command line")
        space = resolve_space(obj["space"])
    if space is None:
        raise SchemaError("no space: give one in the file or on the command line")
    return space


def observable_to_json(obs: Observable) -> dict:
    return {"label": obs.label,
            "outcomes": list(obs.outcomes),
            "effects": [vec_to_json(e.coeffs) for e in obs.effects]}


def observable_from_json(obj, space: StateSpace) -> Observable:
    label = _require(obj, "label")
    outcomes = _require(obj, "outcomes")
    effects = _require(obj, "effects")
    if not isinstance(outcomes, list) or not isinstance(effects, list):
        raise SchemaError("outcomes and effects must be lists")
    try:
        return Observable(label=str(label), space=space, outcomes=outcomes,
                          effects=[vec_from_json(e) for e in effects])
    except ValueError as err:
        raise SchemaError(f"invalid observable: {err}") from err


def observables_doc_to_json(space: StateSpace,
                            observables) -> dict:
    return {"schema": SCHEMA,
            "space": space_to_json(space),
            "observables": [observable_to_json(o) for o in observables]}


def observables_doc_from_json(obj, space: StateSpace | None = None
                              ) -> tuple[StateSpace, tuple[Observable, ...]]:
    """Parse an observables document; `space` fills in when the file has none."""
    _check_schema(obj)
    space = _doc_space(obj, space)
    raw = _require(obj, "observables")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("observables must be a nonempty list")
    return space, tuple(observable_from_json(o, space) for o in raw)


def mother_to_json(mother: MotherObservable) -> dict:
    return {"axes": [observable_to_json(a) for a in mother.axes],
            "outcome_tuples": [list(t) for t in mother.outcome_tuples],
            "effects": [vec_to_json(e.coeffs) for e in mother.effects]}


def jm_result_to_json(result: JmResult) -> dict:
    return {"status": result.status,
            "mother": None if result.mother is None else mother_to_json(result.mother),
            "certificate": None if result.certificate is None
            else vec_to_json(result.certificate)}


def bipartite_doc_to_json(state: BipartiteState) -> dict:
    return {"schema": SCHEMA,
            "space_a": space_to_json(state.space_a),
            "space_b": space_to_json(state.space_b),
            "matrix": [vec_to_json(row) for row in state.matrix]}


def bipartite_doc_from_json(obj) -> BipartiteState:
    _check_schema(obj)
    spec_a, spec_b = _require(obj, "space_a"), _require(obj, "space_b")
    space_a = resolve_space(spec_a)
    # a repeated spec is one space, built once
    space_b = space_a if spec_b == spec_a else resolve_space(spec_b)
    matrix = _require(obj, "matrix")
    if not isinstance(matrix, list):
        raise SchemaError("matrix must be a list of rows")
    try:
        return BipartiteState(space_a=space_a, space_b=space_b,
                              matrix=tuple(vec_from_json(row) for row in matrix))
    except ValueError as err:
        raise SchemaError(f"invalid bipartite state: {err}") from err


def assemblage_doc_to_json(assemblage: Assemblage) -> dict:
    return {"schema": SCHEMA,
            "space": space_to_json(assemblage.space),
            "settings": list(assemblage.settings),
            "outcomes": [list(row) for row in assemblage.outcomes],
            "elements": [[vec_to_json(e) for e in row]
                         for row in assemblage.elements]}


def assemblage_doc_from_json(obj, space: StateSpace | None = None) -> Assemblage:
    _check_schema(obj)
    space = _doc_space(obj, space)
    settings = _require(obj, "settings")
    outcomes = _require(obj, "outcomes")
    elements = _require(obj, "elements")
    if not all(isinstance(x, list) for x in (settings, outcomes, elements)):
        raise SchemaError("settings, outcomes and elements must be lists")
    try:
        return Assemblage(space=space, settings=settings, outcomes=outcomes,
                          elements=[[vec_from_json(e) for e in row] for row in elements])
    except (ValueError, TypeError) as err:
        raise SchemaError(f"invalid assemblage: {err}") from err


def lhs_model_to_json(model: LhsModel) -> dict:
    return {"settings": list(model.settings),
            "outcomes": [list(row) for row in model.outcomes],
            "lambdas": [{"weight": ratio_to_json(lam.weight),
                         "state": vec_to_json(lam.state.coords),
                         "responses": [vec_to_json(row) for row in lam.responses]}
                        for lam in model.lambdas]}


def lhs_model_from_json(obj, space: StateSpace) -> LhsModel:
    settings = _require(obj, "settings")
    outcomes = _require(obj, "outcomes")
    raw = _require(obj, "lambdas")
    if not all(isinstance(x, list) for x in (settings, outcomes, raw)):
        raise SchemaError("settings, outcomes and lambdas must be lists")
    try:
        lambdas = tuple(
            LhsLambda(weight=ratio_from_json(_require(lam, "weight")),
                      state=State(vec_from_json(_require(lam, "state"))),
                      responses=tuple(vec_from_json(row)
                                      for row in _require(lam, "responses")))
            for lam in raw)
        return LhsModel(space=space,
                        settings=tuple(str(s) for s in settings),
                        outcomes=tuple(tuple(str(k) for k in row)
                                       for row in outcomes),
                        lambdas=lambdas)
    except (ValueError, TypeError) as err:
        raise SchemaError(f"invalid local model: {err}") from err


def lhs_result_to_json(result: LhsResult) -> dict:
    return {"status": result.status,
            "model": None if result.model is None else lhs_model_to_json(result.model),
            "certificate": None if result.certificate is None
            else vec_to_json(result.certificate),
            "functional": None if result.functional is None
            else [[vec_to_json(f) for f in row] for row in result.functional]}


def separability_result_to_json(result: SeparabilityResult) -> dict:
    decomposition = None
    if result.decomposition is not None:
        decomposition = {
            "weights": vec_to_json(result.decomposition.weights),
            "pairs": [[vec_to_json(a.coords), vec_to_json(b.coords)]
                      for a, b in result.decomposition.pairs]}
    return {"status": result.status,
            "decomposition": decomposition,
            "certificate": None if result.certificate is None
            else vec_to_json(result.certificate)}


def theorem_report_to_json(report: TheoremReport) -> dict:
    return {"space": report.space_label,
            "seed": report.seed,
            "trial_count": len(report.trials),
            "disagreements": report.disagreements,
            "extra_failures": report.extra_failures,
            "all_agree": report.all_agree,
            "trials": [{"index": t.index,
                        "observables": [observable_to_json(o)
                                        for o in t.observables],
                        "jm_status": t.jm.status,
                        "lhs_status": t.lhs.status,
                        "agree": t.agree,
                        "extra_states": t.extra_states,
                        "extra_all_unsteerable": t.extra_all_unsteerable,
                        "extra_all_reconstructed": t.extra_all_reconstructed}
                       for t in report.trials]}


def parse_effect_arg(text: str) -> tuple:
    """Comma-separated rational coefficients, e.g. '1/2,1/2,0'."""
    parts = [p.strip(string.whitespace) for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise SchemaError("effect must be comma-separated rationals")
    try:
        return tuple(parse_ratio(p) for p in parts)
    except ValueError as err:
        raise SchemaError(str(err)) from err


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"malformed JSON: {err}") from err
    except RecursionError as err:
        raise SchemaError("malformed JSON: nested too deeply") from err
