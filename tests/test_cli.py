"""End-to-end command-line tests through subprocess, and in process."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from gptsteer import composites, exactlp
from gptsteer.cli import EXIT_INTERNAL, main
from gptsteer.composites import (VERTEX_PAIR_CAP, BipartiteState, product_state,
                                 separability_system)
from gptsteer.kernel import (LP_SIZE_CAP, Effect, Observable, State, barycenter,
                             depolarize_observable, extremal_effects, zoo_classical,
                             zoo_names, zoo_polygon)
from gptsteer.ratio import as_ratio
from gptsteer.serialize import (assemblage_doc_to_json, bipartite_doc_to_json,
                                dumps_canonical, observables_doc_to_json)
from gptsteer.steering import assemblage_from

r = as_ratio


def run_cli(*argv, env_extra=None):
    # the child imports the package this process imported, installed or not
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exactlp.__file__)))
    env.pop("GPTSTEER_LOG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "gptsteer", *argv],
                          capture_output=True, text=True, env=env)


def report_of(proc):
    report = json.loads(proc.stdout)
    assert report["schema"] == "gptsteer/1"
    assert report["command"][0] == "gptsteer"
    assert isinstance(report["inputs_digest"], str)
    assert len(report["inputs_digest"]) == 64
    assert report["exit_status"] == proc.returncode
    return report


@pytest.fixture(scope="module")
def docs(tmp_path_factory, gbit, phi, fiducials):
    """Input files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-docs")
    X, Y = fiducials
    noisy = (depolarize_observable(X, r(1, 2)), depolarize_observable(Y, r(1, 2)))

    def put(name, payload):
        path = root / name
        path.write_text(dumps_canonical(payload))
        return str(path)

    classical = zoo_classical(2)
    obs_c = Observable("Z", classical, ("0", "1"),
                       (Effect((1, -1)), Effect((0, 1))))

    sharp_doc = observables_doc_to_json(gbit, fiducials)
    headless = {k: v for k, v in sharp_doc.items() if k != "space"}
    conflicted = dict(sharp_doc)

    too_far = BipartiteState(gbit, gbit, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    unnormalized = BipartiteState(
        gbit, gbit, ((r(1, 2), 0, 0), (0, 0, 0), (0, 0, 0)))
    prod = product_state(gbit, State((1, 1, 1)), gbit, barycenter(gbit))

    return {
        "sharp_obs": put("sharp.json", sharp_doc),
        "headless_obs": put("headless.json", headless),
        "conflicted_obs": put("conflicted.json", conflicted),
        "noisy_obs": put("noisy.json", observables_doc_to_json(gbit, noisy)),
        "classical_obs": put("classical.json",
                             observables_doc_to_json(classical, (obs_c, obs_c))),
        "phi": put("phi.json", bipartite_doc_to_json(phi)),
        "too_far": put("too_far.json", bipartite_doc_to_json(too_far)),
        "unnormalized": put("unnorm.json", bipartite_doc_to_json(unnormalized)),
        "product": put("product.json", bipartite_doc_to_json(prod)),
        "steerable_asm": put("steer.json", assemblage_doc_to_json(
            assemblage_from(phi, fiducials))),
        "local_asm": put("local.json", assemblage_doc_to_json(
            assemblage_from(phi, noisy))),
        "signaling_asm": put("signal.json", {
            "schema": "gptsteer/1", "space": "gbit",
            "settings": ["X", "Y"], "outcomes": [["+", "-"], ["+", "-"]],
            "elements": [[["1/2", "0", "0"], ["1/2", "0", "0"]],
                         [["1/2", "1/4", "0"], ["1/2", "1/4", "0"]]]}),
        "garbage": put("garbage.json", {"schema": "gptsteer/1"}),
    }


def test_zoo_list(docs):
    proc = run_cli("zoo", "list")
    assert proc.returncode == 0
    report = report_of(proc)
    assert "gbit" in report["result"]["models"]
    assert "classical-2" in report["result"]["models"]


def test_zoo_list_text(docs):
    proc = run_cli("zoo", "list", "--out", "text")
    assert proc.returncode == 0
    assert "gbit" in proc.stdout.splitlines()


def test_zoo_show(docs):
    proc = run_cli("zoo", "show", "gbit")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["vertex_count"] == 4
    assert result["extremal_effect_count"] == 6
    proc = run_cli("zoo", "show", "classical-2")
    assert report_of(proc)["result"]["vertex_count"] == 2


def test_zoo_show_unknown(docs):
    proc = run_cli("zoo", "show", "nosuch")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_zoo_show_unknown_non_ascii_size():
    proc = run_cli("zoo", "show", "polygon-\u00b2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown model 'polygon-\u00b2'")


def test_zoo_show_refuses_huge_enumeration(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    message = "vertex enumeration needs up to 678610095504 rays, more than the cap of 100000"
    space = zoo_classical(30)
    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "solve_unique", forbidden)
        with pytest.raises(ValueError) as excinfo:
            extremal_effects(space)
    assert str(excinfo.value) == message
    status = main(["zoo", "show", "classical-30"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_no_option_leaks_between_calls(capsys):
    assert main(["zoo", "list", "--out", "text"]) == 0
    assert capsys.readouterr().out == "".join(f"{name}\n" for name in zoo_names())
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["command"] == ["gptsteer", "zoo", "list"]
    assert out == dumps_canonical(report)


def test_sampler_giving_up_is_a_usage_error(capsys):
    # a random effect in eighths is valid on classical-20 with probability
    # about 10^-5, and at seed 0 none of the sampler's 10,000 draws is
    status = main(["theorem-verify", "--model", "classical-20", "--trials", "1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: rejection sampling found no valid effect in 10000 draws\n"


def test_check_jm_compatible(docs):
    proc = run_cli("check-jm", "--obs-file", docs["classical_obs"])
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["status"] == "jointly_measurable"
    assert result["mother"] is not None


def test_check_jm_incompatible(docs):
    proc = run_cli("check-jm", "--obs-file", docs["sharp_obs"])
    assert proc.returncode == 1
    result = report_of(proc)["result"]
    assert result["status"] == "incompatible"
    assert isinstance(result["certificate"], list)


def test_check_jm_space_resolution(docs):
    proc = run_cli("check-jm", "--obs-file", docs["headless_obs"],
                   "--model", "gbit")
    assert proc.returncode == 1  # sharp pair, still incompatible
    proc = run_cli("check-jm", "--obs-file", docs["headless_obs"])
    assert proc.returncode == 2
    assert "no space" in proc.stderr
    proc = run_cli("check-jm", "--obs-file", docs["conflicted_obs"],
                   "--model", "gbit")
    assert proc.returncode == 2
    assert "both" in proc.stderr


def test_check_jm_bad_input(docs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("check-jm", "--obs-file", str(bad))
    assert proc.returncode == 2
    proc = run_cli("check-jm", "--obs-file", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    proc = run_cli("check-jm", "--obs-file", docs["garbage"])
    assert proc.returncode == 2


def test_jm_threshold(docs):
    proc = run_cli("jm-threshold", "--obs-file", docs["sharp_obs"],
                   "--precision", "1/64")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["lo"] == "1/2"
    assert result["hi"] == "33/64"
    proc = run_cli("jm-threshold", "--obs-file", docs["sharp_obs"],
                   "--precision", "0")
    assert proc.returncode == 2


def test_check_lhs_steerable(docs):
    proc = run_cli("check-lhs", "--asm-file", docs["steerable_asm"])
    assert proc.returncode == 1
    result = report_of(proc)["result"]
    assert result["status"] == "steerable"
    assert result["functional"] is not None


def test_check_lhs_unsteerable(docs):
    proc = run_cli("check-lhs", "--asm-file", docs["local_asm"])
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["status"] == "unsteerable"
    assert len(result["model"]["lambdas"]) == 4


def test_check_lhs_signaling_input(docs):
    proc = run_cli("check-lhs", "--asm-file", docs["signaling_asm"])
    assert proc.returncode == 2
    assert "signaling" in proc.stderr


def test_theorem_verify_cli(docs):
    proc = run_cli("theorem-verify", "--model", "gbit",
                   "--trials", "5", "--seed", "3")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["all_agree"] is True
    assert result["trial_count"] == 5


def test_theorem_verify_deterministic(docs):
    args = ("theorem-verify", "--model", "gbit", "--trials", "4", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_theorem_verify_usage(docs):
    proc = run_cli("theorem-verify", "--model", "polygon-5", "--trials", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_cli("theorem-verify", "--trials", "1")
    assert proc.returncode == 2


def test_theorem_verify_rejects_negative_extra_states(docs):
    proc = run_cli("theorem-verify", "--model", "gbit", "--trials", "2",
                   "--seed", "1", "--extra-states", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "extra state count must be nonnegative" in proc.stderr


def test_tensor_check_max(docs):
    proc = run_cli("tensor", "check-max", "--state-file", docs["phi"])
    assert proc.returncode == 0
    assert report_of(proc)["result"]["status"] == "max-tensor-member"
    proc = run_cli("tensor", "check-max", "--state-file", docs["too_far"])
    assert proc.returncode == 1
    violation = report_of(proc)["result"]["violation"]
    assert violation["value"].startswith("-")
    proc = run_cli("tensor", "check-max", "--state-file", docs["unnormalized"])
    assert proc.returncode == 1
    assert report_of(proc)["result"]["reason"] == "not normalized"


def test_tensor_check_sep(docs):
    proc = run_cli("tensor", "check-sep", "--state-file", docs["phi"])
    assert proc.returncode == 1
    result = report_of(proc)["result"]
    assert result["status"] == "entangled"
    assert isinstance(result["certificate"], list)
    proc = run_cli("tensor", "check-sep", "--state-file", docs["product"])
    assert proc.returncode == 0
    assert report_of(proc)["result"]["status"] == "separable"


@pytest.mark.parametrize("argv", [
    ["check-sep"],
    ["conditional", "--side", "A", "--effect", "1/2,1/2,0"],
], ids=["check-sep", "conditional"])
def test_tensor_refusal_names_normalization(docs, argv, capsys, monkeypatch):
    # the document's matrix is half a product state: only its normalization is wrong
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    status = main(["tensor", argv[0], "--state-file", docs["unnormalized"], *argv[1:]])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: state is not normalized\n"


def test_tensor_marginal(docs):
    proc = run_cli("tensor", "marginal", "--state-file", docs["phi"],
                   "--side", "B")
    assert proc.returncode == 0
    assert report_of(proc)["result"]["state"] == ["1/1", "0/1", "0/1"]


def test_tensor_conditional(docs):
    proc = run_cli("tensor", "conditional", "--state-file", docs["phi"],
                   "--side", "A", "--effect", "1/2,1/2,0")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["probability"] == "1/2"
    assert result["state"] == ["1/1", "1/1", "1/1"]


def test_tensor_conditional_on_unit_is_marginal(docs):
    proc = run_cli("tensor", "conditional", "--state-file", docs["phi"],
                   "--side", "A", "--effect", "1,0,0")
    result = report_of(proc)["result"]
    assert result["probability"] == "1/1"
    marg = run_cli("tensor", "marginal", "--state-file", docs["phi"],
                   "--side", "B")
    assert result["state"] == report_of(marg)["result"]["state"]


def test_tensor_conditional_errors(docs):
    proc = run_cli("tensor", "conditional", "--state-file", docs["phi"],
                   "--side", "A", "--effect", "2,0,0")
    assert proc.returncode == 2
    assert "not a valid effect" in proc.stderr
    proc = run_cli("tensor", "conditional", "--state-file", docs["phi"],
                   "--side", "A", "--effect", "0,0,0")
    assert proc.returncode == 2


def test_log_env_var(docs):
    proc = run_cli("check-jm", "--obs-file", docs["classical_obs"],
                   env_extra={"GPTSTEER_LOG": "info"})
    assert proc.returncode == 0
    assert "INFO gptsteer" in proc.stderr


def test_text_output_mode(docs):
    proc = run_cli("check-jm", "--obs-file", docs["sharp_obs"],
                   "--out", "text")
    assert proc.returncode == 1
    assert proc.stdout.startswith("status: incompatible")


@pytest.mark.parametrize("extra, digest", [
    ((), "372a92f84290b1b879b56823a5648801515591fc15566095d35b6e38b0a81bad"),
    (("--extra-states", "2"), "4b9e4d82b28ac88c345171436736b9458ddc6a188ca41962a1da19542483c499"),
], ids=["default", "extra-states"])
def test_fixed_seed_report_is_pinned(extra, digest, capsys, monkeypatch):
    # the extra states run check_lhs and jm_to_lhs on random states too
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    status = main(["theorem-verify", "--model", "gbit", "--trials", "20", "--seed", "7", *extra])
    assert status == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, doc, status, digest", [
    (("zoo", "show", "gbit"), None, 0,
     "2260e5632c2ccff561813ab23d871ac0dbcadab055698daa4c9656f136b105a7"),
    (("check-jm", "--obs-file"), "sharp_obs", 1,
     "61965d0f21dde0974c0ce4fd95655d0f3c0b3cf9cda84415a66625aaaf318e1a"),
    (("check-jm", "--obs-file"), "classical_obs", 0,
     "e0dcd2bb31709e93418ae0367e199adfc2b39bc3ddcef57b12af61e0c020f2e8"),
    (("jm-threshold", "--precision", "1/64", "--obs-file"), "sharp_obs", 0,
     "5cab6b493e4e19f39d4175a3906ee522d07b2b1d32b00048a2a32fb07de1d552"),
    (("check-lhs", "--asm-file"), "steerable_asm", 1,
     "83a9d289ea456991caf1686a8f5a591df7241335c1786c9e3338985af6b61eec"),
    (("check-lhs", "--asm-file"), "local_asm", 0,
     "53524f06c476d87912729d729577047b2cc290f3a3fefff298627ace17a554e5"),
    (("tensor", "check-sep", "--state-file"), "product", 0,
     "58f7cc16b05448ed53afdc6686322a6162846f6d0152904fe6f8418d446c403f"),
    (("tensor", "check-sep", "--state-file"), "phi", 1,
     "c5db07d09b8fda63731fb8a09eecb273b983441e8051afd043ec7b5e1dadaa02"),
    (("tensor", "check-max", "--state-file"), "too_far", 1,
     "2adb558075cb49fc0a8b17a0efbc2f750881571c8079dd030d06accec633eb95"),
])
def test_default_reports_are_pinned(docs, argv, doc, status, digest, capsys, monkeypatch):
    # run beside the documents and name them by file name, so the echoed
    # command line, and with it the report, does not depend on where they are
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    monkeypatch.chdir(os.path.dirname(docs["phi"]))
    if doc is not None:
        argv += (os.path.basename(docs[doc]),)
    assert main(list(argv)) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_failed_audit_exits_internal(docs, capsys, monkeypatch):
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    clean = exactlp._Tableau.extract_point

    def off_by_one(self):
        point = clean(self)
        return (point[0] + 1,) + point[1:]

    monkeypatch.setattr(exactlp._Tableau, "extract_point", off_by_one)
    status = main(["check-jm", "--obs-file", docs["noisy_obs"]])
    captured = capsys.readouterr()
    assert status == EXIT_INTERNAL == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal audit failed: ")


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    # the JSON parser recurses once per level; depth is a bad input, not a refutation
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("check-jm", "--model", "gbit", "--obs-file", str(deep))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: malformed JSON: nested too deeply\n"


def test_oversized_family_is_refused_before_solving(gbit, phi, fiducials, tmp_path, capsys,
                                                     monkeypatch):
    # seven alternating X/Y copies at visibility 1/2: 2^7 outcome tuples
    # times 4 vertices is 512 pairs; solved, the JM LP takes about a minute
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    X, Y = fiducials
    family = tuple(depolarize_observable((X, Y)[i % 2], r(1, 2)) for i in range(7))
    obs = tmp_path / "xy7-obs.json"
    obs.write_text(dumps_canonical(observables_doc_to_json(gbit, family)))
    asm = tmp_path / "xy7-asm.json"
    asm.write_text(dumps_canonical(assemblage_doc_to_json(assemblage_from(phi, family))))
    for argv in (["check-jm", "--obs-file", str(obs)],
                 ["jm-threshold", "--obs-file", str(obs), "--precision", "1/8"],
                 ["check-lhs", "--asm-file", str(asm)]):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == ("error: the LP has 512 (outcome tuple, vertex) pairs, "
                                f"more than the cap of {LP_SIZE_CAP}\n")


def _centers(space_a, space_b):
    return product_state(space_a, barycenter(space_a), space_b, barycenter(space_b))


def test_oversized_separability_lp_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    # polygon-65 with polygon-64 is 4160 vertex pairs; built, its LP would
    # hold 4160 rows w >= 0 of 4160 entries each
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    state = _centers(zoo_polygon(65), zoo_polygon(64))
    message = (f"the separability LP has 4160 vertex pairs, "
               f"more than the cap of {VERTEX_PAIR_CAP}")

    def forbidden(*args):
        raise AssertionError("a row was built")

    with monkeypatch.context() as patched:
        patched.setattr(composites, "membership_shape", forbidden)
        with pytest.raises(ValueError) as excinfo:
            separability_system(state)
    assert str(excinfo.value) == message
    path = tmp_path / "polygons.json"
    path.write_text(dumps_canonical(bipartite_doc_to_json(state)))
    status = main(["tensor", "check-sep", "--state-file", str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_separability_cap_counts_pairs_up_to_and_past_it(monkeypatch):
    monkeypatch.setattr(composites, "VERTEX_PAIR_CAP", 25)
    assert separability_system(_centers(zoo_polygon(5), zoo_polygon(5))).variable_count == 25
    with pytest.raises(ValueError, match="has 30 vertex pairs, more than the cap of 25"):
        separability_system(_centers(zoo_polygon(5), zoo_polygon(6)))
