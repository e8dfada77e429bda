"""A state space's span is decided by the polar enumeration that finds its
facets; rank-deficient systems are settled by one LP before the ray cap."""

import pytest

import gptsteer.exactlp as exactlp
import gptsteer.vecs as vecs
from gptsteer.errors import UnboundedRegionError
from gptsteer.exactlp import RAY_CAP, LinearSystem, _ray_bound, vertex_enumerate
from gptsteer.kernel import StateSpace, zoo_gbit

SPAN_MESSAGE = "vertices do not affinely span the normalization slice"

# 500 points on the moment curve (1, t, t^2, t^3) with a zero last coordinate:
# they span only four of the five ambient directions.
MOMENT_POINTS = tuple((1, t, t * t, t ** 3, 0) for t in range(500))


@pytest.mark.parametrize("ambient, vertices", [
    (3, ((1, 0, 0), (1, 1, 0))),
    (3, ((1, 0, 0), (1, 1, 1), (1, 2, 2))),
    (5, MOMENT_POINTS),
])
def test_non_spanning_vertices_get_the_span_message(ambient, vertices):
    with pytest.raises(ValueError, match=f"^{SPAN_MESSAGE}$") as excinfo:
        StateSpace("flat", ambient, vertices)
    assert type(excinfo.value) is ValueError


def test_state_space_build_eliminates_once(monkeypatch):
    calls = []
    for module in (vecs, exactlp):
        clean = module.independent_rows
        monkeypatch.setattr(module, "independent_rows",
                            lambda rows, clean=clean: calls.append(1) or clean(rows))
    zoo_gbit()
    assert len(calls) == 1


def test_rank_deficient_system_past_the_cap_solves_one_lp(monkeypatch):
    calls = []
    clean = exactlp.lp_feasible
    monkeypatch.setattr(exactlp, "lp_feasible",
                        lambda system: calls.append(system) or clean(system))
    rows = tuple((point, 0) for point in MOMENT_POINTS)
    # a slice of the moment points' polar cone; the unit functional is in it,
    # so it is nonempty and contains a line. Its 500 rows and t >= 0, with one
    # equality, take McMullen's bound for 501 facets in dimension 4.
    polar = LinearSystem.build(5, (((1, 250, 83000, 31125000, 0), 1),), rows)
    assert _ray_bound(501, 4) == 124749 > RAY_CAP
    with pytest.raises(UnboundedRegionError, match="contains a line"):
        vertex_enumerate(polar)
    assert calls == [polar]
    # x0 >= 0 (the first row) against -x0 >= 1: empty
    empty = LinearSystem.build(5, (), rows + (((-1, 0, 0, 0, 0), 1),))
    assert _ray_bound(502, 5) > RAY_CAP  # 501 rows and t >= 0 in dimension 5
    assert vertex_enumerate(empty) == ()
    assert calls == [polar, empty]
