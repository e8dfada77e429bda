"""Refusals that must say the right thing: a JM or LHS witness that fails
its audit is an internal error (exit 3), and a rational literal may be
surrounded by ASCII whitespace only (anything else is bad input, exit 2)."""

import pytest

import gptsteer.compatibility as compatibility
import gptsteer.steering as steering
from gptsteer.cli import EXIT_INTERNAL, EXIT_USAGE, main
from gptsteer.errors import SchemaError, VerificationError
from gptsteer.exactlp import FeasibilityResult
from gptsteer.kernel import depolarize_observable
from gptsteer.ratio import as_ratio, parse_ratio
from gptsteer.serialize import (assemblage_doc_to_json, bipartite_doc_to_json,
                                dumps_canonical, observables_doc_to_json, ratio_from_json)
from gptsteer.steering import assemblage_from

NON_ASCII_PADDED = ["\u30003/4", "\x1c3/4", "\xa01", "1\u2003", "\x851/2"]


@pytest.fixture
def noisy(fiducials):
    return tuple(depolarize_observable(o, as_ratio(1, 2)) for o in fiducials)


def _nudge_first_witness_entry(monkeypatch, module):
    """Make module's lp_feasible hand back a witness one unit off in its first
    entry, past the LP's own substitution check."""
    clean = module.lp_feasible

    def nudged(system):
        out = clean(system)
        return FeasibilityResult(out.status, witness=(out.witness[0] + 1,) + out.witness[1:])

    monkeypatch.setattr(module, "lp_feasible", nudged)


def _assert_internal(capsys, status, message):
    captured = capsys.readouterr()
    assert status == EXIT_INTERNAL == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal audit failed: ")
    assert message in captured.err


def test_failed_jm_audit_is_internal(gbit, noisy, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    _nudge_first_witness_entry(monkeypatch, compatibility)
    with pytest.raises(VerificationError, match="mother effect outside") as excinfo:
        compatibility.check_joint_measurability(noisy, gbit)
    assert type(excinfo.value.__cause__) is ValueError
    path = tmp_path / "noisy.json"
    path.write_text(dumps_canonical(observables_doc_to_json(gbit, noisy)))
    status = main(["check-jm", "--obs-file", str(path)])
    _assert_internal(capsys, status, "mother effect outside the effect polytope")


def test_failed_lhs_audit_is_internal(phi, noisy, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    assemblage = assemblage_from(phi, noisy)
    _nudge_first_witness_entry(monkeypatch, steering)
    with pytest.raises(VerificationError, match="weights must sum to one") as excinfo:
        steering.check_lhs(assemblage)
    assert type(excinfo.value.__cause__) is ValueError
    path = tmp_path / "local.json"
    path.write_text(dumps_canonical(assemblage_doc_to_json(assemblage)))
    status = main(["check-lhs", "--asm-file", str(path)])
    _assert_internal(capsys, status, "hidden-state weights must sum to one")


def test_parse_ratio_strips_ascii_whitespace_only():
    assert parse_ratio(" 3/4\t") == as_ratio(3, 4)
    assert parse_ratio("\r\n\x0b\x0c-2/6 ") == as_ratio(-1, 3)
    for text in NON_ASCII_PADDED:
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_ratio(text)


def test_ratio_from_json_refuses_non_ascii_whitespace():
    assert ratio_from_json(" 3/4\t") == as_ratio(3, 4)
    for text in NON_ASCII_PADDED:
        with pytest.raises(SchemaError, match="not a rational literal"):
            ratio_from_json(text)


def test_effect_argument_refuses_non_ascii_whitespace(phi, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GPTSTEER_LOG", raising=False)
    path = tmp_path / "phi.json"
    path.write_text(dumps_canonical(bipartite_doc_to_json(phi)))
    argv = ["tensor", "conditional", "--state-file", str(path), "--side", "A", "--effect"]
    assert main(argv + [" 1/2 ,\t1/2, 0"]) == 0
    capsys.readouterr()
    for effect in ("\xa01,0,0", "1,\u30000,0", "1/2,1/2,0\x1c"):
        assert main(argv + [effect]) == EXIT_USAGE == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a rational literal")
