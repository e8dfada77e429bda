"""JSON schema round-trips and strictness."""

import pytest

from gptsteer.compatibility import check_joint_measurability
from gptsteer.composites import is_separable, product_state
from gptsteer.errors import SchemaError
from gptsteer.kernel import (Effect, Observable, State, barycenter,
                             depolarize_observable, zoo_classical)
from gptsteer.ratio import as_ratio
from gptsteer.sampler import SamplerConfig
from gptsteer.serialize import (SCHEMA, assemblage_doc_from_json,
                                assemblage_doc_to_json, bipartite_doc_from_json,
                                bipartite_doc_to_json, dumps_canonical,
                                jm_result_to_json, lhs_model_from_json,
                                lhs_model_to_json, lhs_result_to_json,
                                load_json, mother_to_json, observable_from_json,
                                observable_to_json, observables_doc_from_json,
                                observables_doc_to_json, parse_effect_arg,
                                ratio_from_json, ratio_to_json, resolve_space,
                                separability_result_to_json, space_from_json,
                                space_to_json, theorem_report_to_json,
                                vec_from_json, vec_to_json)
from gptsteer.steering import (assemblage_from, check_lhs, jm_to_lhs,
                               theorem_verify)

r = as_ratio


def _noisy_pair(fiducials):
    X, Y = fiducials
    return (depolarize_observable(X, r(1, 2)),
            depolarize_observable(Y, r(1, 2)))


def test_ratio_json():
    assert ratio_to_json(r(3, 4)) == "3/4"
    assert ratio_to_json(r(-2)) == "-2/1"
    assert ratio_from_json("3/4") == r(3, 4)
    assert ratio_from_json(5) == r(5)
    assert ratio_from_json("-7/2") == r(-7, 2)
    for bad in (True, False, 0.5, "0.5", "a/b", None, [1]):
        with pytest.raises(SchemaError):
            ratio_from_json(bad)


def test_ratio_json_reads_ascii_digits_only(gbit):
    for bad in ("\u0663/\u0664", "\uff13"):
        with pytest.raises(SchemaError, match="not a rational literal"):
            ratio_from_json(bad)
    doc = space_to_json(gbit)
    doc["vertices"][0][1] = "\uff11/1"
    with pytest.raises(SchemaError, match="not a rational literal"):
        space_from_json(load_json(dumps_canonical(doc)))


def test_vec_json():
    vec = (r(1, 2), r(0), r(-1, 3))
    assert vec_to_json(vec) == ["1/2", "0/1", "-1/3"]
    assert vec_from_json(["1/2", "0", "-1/3"]) == vec
    with pytest.raises(SchemaError):
        vec_from_json("1/2")


def test_space_roundtrip(gbit):
    doc = space_to_json(gbit)
    back = space_from_json(doc)
    assert back.label == gbit.label
    assert back.vertices == gbit.vertices
    with pytest.raises(SchemaError):
        space_from_json({"label": "x", "vertices": []})
    with pytest.raises(SchemaError):
        space_from_json({"label": "x"})
    # redundant vertex is rejected by the space itself
    with pytest.raises(SchemaError):
        space_from_json({"label": "x",
                         "vertices": [["1", "0"], ["1", "1"], ["1", "1/2"]]})


def test_resolve_space(gbit):
    assert resolve_space("gbit").vertices == gbit.vertices
    assert resolve_space(space_to_json(gbit)).vertices == gbit.vertices
    with pytest.raises(SchemaError):
        resolve_space("nosuch-model")
    with pytest.raises(SchemaError):
        resolve_space(7)


def test_observable_roundtrip(gbit, fiducials):
    X, _ = fiducials
    doc = observable_to_json(X)
    back = observable_from_json(doc, gbit)
    assert back.label == X.label
    assert back.outcomes == X.outcomes
    assert tuple(e.coeffs for e in back.effects) == \
        tuple(e.coeffs for e in X.effects)
    bad = dict(doc)
    bad["effects"] = [["1", "0", "0"]]  # one effect for two outcomes
    with pytest.raises(SchemaError):
        observable_from_json(bad, gbit)


def test_observables_doc_roundtrip(gbit, fiducials):
    doc = observables_doc_to_json(gbit, fiducials)
    assert doc["schema"] == SCHEMA
    space, observables = observables_doc_from_json(doc)
    assert space.vertices == gbit.vertices
    assert tuple(o.label for o in observables) == ("X", "Y")


def test_observables_doc_space_resolution(gbit, fiducials):
    doc = observables_doc_to_json(gbit, fiducials)
    with pytest.raises(SchemaError, match="both in the file"):
        observables_doc_from_json(doc, space=gbit)
    headless = {k: v for k, v in doc.items() if k != "space"}
    space, observables = observables_doc_from_json(headless, space=gbit)
    assert space is gbit
    with pytest.raises(SchemaError, match="no space"):
        observables_doc_from_json(headless)
    with pytest.raises(SchemaError, match="unsupported schema"):
        observables_doc_from_json({**doc, "schema": "gptsteer/999"})
    with pytest.raises(SchemaError):
        observables_doc_from_json({**doc, "observables": []})


def test_mother_and_jm_result_json(gbit, fiducials):
    noisy = _noisy_pair(fiducials)
    jm = check_joint_measurability(noisy, gbit)
    doc = mother_to_json(jm.mother)
    assert len(doc["effects"]) == 4
    assert len(doc["axes"]) == 2
    assert doc["outcome_tuples"][0] == ["+", "+"]
    result_doc = jm_result_to_json(jm)
    assert result_doc["status"] == "jointly_measurable"
    assert result_doc["certificate"] is None
    sharp = check_joint_measurability(fiducials, gbit)
    sharp_doc = jm_result_to_json(sharp)
    assert sharp_doc["status"] == "incompatible"
    assert sharp_doc["mother"] is None
    assert isinstance(sharp_doc["certificate"], list)


def test_bipartite_doc_roundtrip(gbit, phi):
    doc = bipartite_doc_to_json(phi)
    back = bipartite_doc_from_json(doc)
    assert back.matrix == phi.matrix
    named = dict(doc)
    named["space_a"] = "gbit"
    named["space_b"] = "gbit"
    assert bipartite_doc_from_json(named).matrix == phi.matrix
    with pytest.raises(SchemaError):
        bipartite_doc_from_json({**doc, "matrix": "nope"})
    with pytest.raises(SchemaError):
        bipartite_doc_from_json({**doc, "matrix": [["1", "0"], ["0", "0"]]})


def test_bipartite_doc_builds_a_repeated_space_once(monkeypatch, gbit, phi, classical2):
    import gptsteer.serialize as serialize
    built = []
    clean = serialize.resolve_space
    monkeypatch.setattr(serialize, "resolve_space",
                        lambda spec: built.append(spec) or clean(spec))
    for spec in ("gbit", space_to_json(gbit)):
        built.clear()
        doc = {**bipartite_doc_to_json(phi), "space_a": spec, "space_b": spec}
        state = bipartite_doc_from_json(doc)
        assert built == [spec]
        assert state.space_b is state.space_a
        assert state.matrix == phi.matrix
    # different specs, even for equal spaces, are resolved one by one
    built.clear()
    doc = {**bipartite_doc_to_json(phi), "space_a": "gbit"}
    state = bipartite_doc_from_json(doc)
    assert len(built) == 2 and state.space_a == state.space_b == gbit
    built.clear()
    product = product_state(gbit, barycenter(gbit), classical2, barycenter(classical2))
    back = bipartite_doc_from_json(bipartite_doc_to_json(product))
    assert len(built) == 2 and (back.space_a, back.space_b) == (gbit, classical2)


def test_assemblage_doc_roundtrip(gbit, phi, fiducials):
    asm = assemblage_from(phi, fiducials)
    doc = assemblage_doc_to_json(asm)
    back = assemblage_doc_from_json(doc)
    assert back.elements == asm.elements
    assert back.settings == asm.settings
    with pytest.raises(SchemaError, match="both in the file"):
        assemblage_doc_from_json(doc, space=gbit)
    headless = {k: v for k, v in doc.items() if k != "space"}
    assert assemblage_doc_from_json(headless, space=gbit).elements == asm.elements
    with pytest.raises(SchemaError, match="no space"):
        assemblage_doc_from_json(headless)
    with pytest.raises(SchemaError):
        assemblage_doc_from_json({**doc, "elements": [[["1", "0"]]]})


def test_lhs_model_roundtrip(gbit, phi, fiducials):
    noisy = _noisy_pair(fiducials)
    jm = check_joint_measurability(noisy, gbit)
    model = jm_to_lhs(jm.mother, phi)
    doc = lhs_model_to_json(model)
    back = lhs_model_from_json(doc, gbit)
    back.validate()
    assert len(back.lambdas) == len(model.lambdas)
    assert back.lambdas[0].weight == model.lambdas[0].weight
    assert back.lambdas[0].state.coords == model.lambdas[0].state.coords
    broken = dict(doc)
    broken["lambdas"] = [dict(lam, weight="-1/2") for lam in doc["lambdas"]]
    with pytest.raises(SchemaError):
        lhs_model_from_json(broken, gbit)
    short = dict(doc, settings=[*doc["settings"], "extra"])
    with pytest.raises(SchemaError, match="one outcome row per setting"):
        lhs_model_from_json(short, gbit)


def test_lhs_result_json(gbit, phi, fiducials):
    steer = check_lhs(assemblage_from(phi, fiducials))
    doc = lhs_result_to_json(steer)
    assert doc["status"] == "steerable"
    assert doc["model"] is None
    assert isinstance(doc["certificate"], list)
    assert isinstance(doc["functional"][0][0], list)
    local = check_lhs(assemblage_from(phi, _noisy_pair(fiducials)))
    doc = lhs_result_to_json(local)
    assert doc["status"] == "unsteerable"
    assert doc["certificate"] is None
    assert len(doc["model"]["lambdas"]) == 4


def test_separability_result_json(gbit, phi):
    doc = separability_result_to_json(is_separable(phi))
    assert doc["status"] == "entangled"
    assert doc["decomposition"] is None
    assert isinstance(doc["certificate"], list)
    prod = product_state(gbit, State((1, 1, 1)), gbit, barycenter(gbit))
    doc = separability_result_to_json(is_separable(prod))
    assert doc["status"] == "separable"
    assert doc["certificate"] is None
    weights = [ratio_from_json(w) for w in doc["decomposition"]["weights"]]
    assert sum(weights) == r(1)


def test_theorem_report_json(gbit):
    report = theorem_verify(gbit, 3, SamplerConfig(seed=42))
    doc = theorem_report_to_json(report)
    assert doc["space"] == "gbit"
    assert doc["seed"] == 42
    assert doc["trial_count"] == 3
    assert doc["all_agree"] is True
    assert len(doc["trials"]) == 3
    assert {"index", "observables", "jm_status", "lhs_status", "agree",
            "extra_states", "extra_all_unsteerable",
            "extra_all_reconstructed"} <= set(doc["trials"][0])


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_parse_effect_arg():
    assert parse_effect_arg("1/2,1/2,0") == (r(1, 2), r(1, 2), r(0))
    assert parse_effect_arg(" 1/2 , -1 ") == (r(1, 2), r(-1))
    for bad in ("", "1/2,,0", "x", "0.5"):
        with pytest.raises(SchemaError):
            parse_effect_arg(bad)


def test_load_json():
    assert load_json('{"a": 1}') == {"a": 1}
    with pytest.raises(SchemaError):
        load_json("{nope")
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_json("[" * 100_000 + "]" * 100_000)
