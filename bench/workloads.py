"""The four benchmark workloads, driven through gptsteer's public API.

A workload is a setup step plus an endless stream of rounds. A round is
a generator that yields ``Op`` objects; the runner times each op's call,
sends the result back, and the round checks it with ``bench.checks``
inside ``ctx.checking()`` so that check time stays out of the measured
time. Every ``CYCLE`` rounds repeat the same op mix, and a timed run
measures whole cycles, so the share of each op kind in a run does not
swing with the seed or the run length.

Library functions are always looked up as ``gp.<name>`` at call time,
so that the tracer's rebinding of the package attributes sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from checks import fr, frvec, require


@dataclass
class Op:
    kind: str
    call: Callable[[], object]


class Context:
    """What a workload needs from the runner: the package, a seed, a clock."""

    def __init__(self, gp, seed: int, workdir: str):
        self.gp = gp
        self.seed = seed
        self.workdir = workdir
        self.check_s = 0.0
        self.sizes: dict = {}

    @contextlib.contextmanager
    def checking(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - start


def _family(observables):
    """Plain-Fraction copy of a family: (outcomes, effects) per observable."""
    return [(obs.outcomes, tuple(frvec(e.coeffs) for e in obs.effects)) for obs in observables]


def _vertices(space):
    return [frvec(v) for v in space.vertices]


def _matrix(state):
    return tuple(frvec(row) for row in state.matrix)


# ---------------------------------------------------------------------------


class TheoremGbit:
    """Acceptance 1's equivalence run on the gbit, as individual verdicts.

    Fixed probes first (sharp X/Y and X/Y at 1/4, 1/2, 3/4), then seeded
    random_observable_set families. Each round decides JM and canonical
    LHS for one family, then checks EXTRA_STATES random max-tensor states
    against that family if it is compatible, else against the last
    compatible probe of its size: check_lhs must say unsteerable and
    jm_to_lhs must reproduce the assemblage. Family sizes alternate 2, 3,
    so every round has the same op mix and every cycle the same sizes.
    """

    name = "theorem-gbit"
    CYCLE = 2
    EXTRA_STATES = 10
    DENOMINATOR = 8

    def setup(self, ctx: Context):
        gp = ctx.gp
        self.gbit = gp.zoo_gbit()
        self.phi = gp.canonical_max_entangled(self.gbit)
        x, y = gp.square_fiducials(self.gbit)
        depol = gp.depolarize_observable
        r = gp.as_ratio
        self.probes = [((x, y), False)]
        self.probes += [((depol(x, r(k, 4)), depol(y, r(k, 4))), k != 3) for k in (1, 2, 3)]
        # Repeating X keeps the family compatible at 1/2; it gives the
        # three-observable extras a known mother to fall back on.
        half = depol(x, r(1, 2))
        self.probes.append(((half, depol(y, r(1, 2)), half), True))
        gp.in_state_cone(gp.barycenter(self.gbit).coords, self.gbit)
        self.vertices = _vertices(self.gbit)
        self.facets = checks.facets(self.vertices)
        self.phi_matrix = _matrix(self.phi)
        ctx.sizes.update(probes=len(self.probes), extra_states=self.EXTRA_STATES,
                         observables_per_family=[2, 3], denominator=self.DENOMINATOR)

    def rounds(self, ctx: Context):
        gp = ctx.gp
        rng = random.Random(ctx.seed)
        configs = {n: gp.SamplerConfig(seed=ctx.seed, denominator=self.DENOMINATOR,
                                       min_observables=n, max_observables=n)
                   for n in (2, 3)}
        fallback = {}
        for index in itertools.count():
            if index < len(self.probes):
                family, expected = self.probes[index]
            else:
                size = 2 + (index - len(self.probes)) % 2
                family, expected = gp.random_observable_set(self.gbit, rng, configs[size]), None
            yield self._round(ctx, rng, family, expected, fallback)

    def _round(self, ctx, rng, family, expected, fallback):
        gp = ctx.gp
        fam = _family(family)
        jm = yield Op("check_joint_measurability",
                      lambda: gp.check_joint_measurability(family, self.gbit))
        with ctx.checking():
            compatible = checks.check_jm(jm, fam, self.vertices)
            require(expected is None or compatible == expected, "probe verdict moved")
        lhs = yield Op("check_lhs", lambda: gp.check_lhs(gp.assemblage_from(self.phi, family)))
        with ctx.checking():
            elements = checks.assemblage_of(self.phi_matrix, fam)
            unsteerable = checks.check_lhs(lhs, elements, self.vertices, self.facets)
            require(unsteerable == compatible, "JM and LHS verdicts disagree")
        if compatible and expected is not None:
            fallback[len(family)] = (family, fam, jm.mother)
        if compatible:
            compat_family, compat_fam, mother = family, fam, jm.mother
        elif len(family) in fallback:
            compat_family, compat_fam, mother = fallback[len(family)]
        else:
            return
        for _ in range(self.EXTRA_STATES):
            other = gp.random_max_tensor_state(self.gbit, self.gbit, rng, self.DENOMINATOR)
            result = yield Op("check_lhs",
                              lambda: gp.check_lhs(gp.assemblage_from(other, compat_family)))
            with ctx.checking():
                elements = checks.assemblage_of(_matrix(other), compat_fam)
                require(checks.check_lhs(result, elements, self.vertices, self.facets),
                        "a compatible family steers a max-tensor state")
            model = yield Op("jm_to_lhs", lambda: gp.jm_to_lhs(mother, other))
            with ctx.checking():
                checks.check_lhs_model(checks.model_data(model), elements, self.vertices,
                                       self.facets)


# ---------------------------------------------------------------------------


def _circle_point(t: Fraction):
    d = 1 + t * t
    return (Fraction(1), (1 - t * t) / d, 2 * t / d)


def _sphere_point(u: Fraction, v: Fraction):
    s = 1 + u * u + v * v
    return (Fraction(1), 2 * u / s, 2 * v / s, (s - 2) / s)


class GeometryCold:
    """Every round builds a model that is new to the process.

    Shapes cycle through rational polygons with 5-8 points on the unit
    circle (tangent half-angle) and a 3-D polytope with 5 points on the
    sphere (inverse stereographic projection), in turn. The ops are the first
    calls on the model, so every geometry cache they touch starts cold:
    StateSpace, extremal_effects, in_state_cone (which builds the
    facets), is_valid_state on an inner point, an outer point, a vertex
    and a point of the bounding box, in_max_tensor and is_separable of a
    random separable state.
    """

    name = "geometry-cold"
    # Six sphere points took 2.7-4.4 s per facet call, a seventh of a run
    # for one op, so the polytopes stop at five points.
    SHAPES = (("polygon", 5), ("polygon", 6), ("polygon", 7), ("polygon", 8), ("sphere", 5))
    CYCLE = len(SHAPES)

    def setup(self, ctx: Context):
        ctx.sizes.update(shapes=[f"{kind}-{n}" for kind, n in self.SHAPES],
                         valid_state_probes=4)

    def rounds(self, ctx: Context):
        rng = random.Random(ctx.seed)
        for index in itertools.count():
            kind, n = self.SHAPES[index % len(self.SHAPES)]
            yield self._round(ctx, rng, f"cold-{index}-{kind}-{n}", self._points(rng, kind, n))

    @staticmethod
    def _points(rng, kind, n):
        """Jittered regular shapes on a coarse grid, so that every seed gives
        models of the same size and similar coordinate bit lengths."""
        def grid(x, steps):
            return Fraction(round(x * steps), steps)

        while True:
            if kind == "polygon":
                # Angles stay clear of pi, where tan(angle / 2) blows up.
                params = {grid(math.tan((-math.pi + 2 * math.pi * (k + 0.5 + rng.uniform(
                    -0.2, 0.2)) / n) / 2), 8) for k in range(n)}
                points = sorted(_circle_point(t) for t in params)
            else:
                # Stereographic coordinates: the south pole, a ring of n - 2
                # points alternately below and above the equator (so no four
                # are coplanar and the jitter keeps the combinatorial type),
                # and one point high in the northern hemisphere.
                pattern = [(0.0, 0.0), (2.0, 2.0)]
                for k in range(n - 2):
                    radius = 0.8 if k % 2 == 0 else 1.25
                    angle = 2 * math.pi * k / (n - 2)
                    pattern.append((radius * math.cos(angle), radius * math.sin(angle)))
                params = {(grid(u + rng.uniform(-0.2, 0.2), 4),
                           grid(v + rng.uniform(-0.2, 0.2), 4)) for u, v in pattern}
                points = sorted(_sphere_point(u, v) for u, v in params)
            if len(params) == n and checks.rank([[a - b for a, b in zip(p, points[0])]
                                                 for p in points[1:]]) == len(points[0]) - 1:
                return points

    def _round(self, ctx, rng, label, points):
        gp = ctx.gp
        dim = len(points[0])
        with ctx.checking():
            facets = checks.facets(points)
        space = yield Op("StateSpace", lambda: gp.StateSpace(label, dim, points))
        with ctx.checking():
            require(_vertices(space) == points, "StateSpace changed the vertices")
        effects = yield Op("extremal_effects", lambda: gp.extremal_effects(space))
        with ctx.checking():
            unit = (Fraction(1),) + (Fraction(0),) * (dim - 1)
            coeffs = [frvec(e.coeffs) for e in effects]
            require(unit in coeffs and (Fraction(0),) * dim in coeffs,
                    "zero or unit effect missing")
            for e in coeffs:
                require(checks.effect_valid(e, points), "extremal effect is not valid")
                tight = [v for v in points if checks.dot(e, v) in (0, 1)]
                require(checks.rank(tight) == dim, "extremal effect is not a vertex")
        probe = self._probe(rng, points)
        inside = yield Op("in_state_cone", lambda: gp.in_state_cone(probe, space))
        with ctx.checking():
            require(inside == all(checks.dot(f, probe) >= 0 for f in facets),
                    "in_state_cone disagrees with the facet oracle")
            normals = [frvec(f) for f in gp.state_cone_facets(space)]
            for f in normals:
                require(all(checks.dot(f, v) >= 0 for v in points),
                        "facet normal negative on a vertex")
            require({checks.ray_key(f) for f in normals} == facets,
                    "facets differ from the oracle")
            require(dim != 3 or len(normals) == len(points),
                    "a polygon needs as many facets as vertices")
        for state in (self._mixture(rng, points), self._pushed_out(rng, points),
                      rng.choice(points), self._probe(rng, points)):
            valid = yield Op("is_valid_state", lambda: gp.is_valid_state(state, space))
            with ctx.checking():
                require(valid == checks.in_polytope(state, facets),
                        "is_valid_state disagrees with the facet test")
        bipartite = gp.random_separable_state(space, space, rng)
        member = yield Op("in_max_tensor", lambda: gp.in_max_tensor(bipartite))
        with ctx.checking():
            require(member is True, "separable state left the maximal tensor product")
        result = yield Op("is_separable", lambda: gp.is_separable(bipartite))
        with ctx.checking():
            require(result.separable, "separable state judged entangled")
            decomposition = result.decomposition
            checks.check_decomposition(frvec(decomposition.weights),
                                       [(frvec(a.coords), frvec(b.coords))
                                        for a, b in decomposition.pairs],
                                       _matrix(bipartite), points, points)

    @staticmethod
    def _mixture(rng, points):
        weights = [Fraction(rng.randint(1, 8)) for _ in points]
        total = sum(weights)
        return tuple(sum(w * p[i] for w, p in zip(weights, points)) / total
                     for i in range(len(points[0])))

    @staticmethod
    def _probe(rng, points):
        """A normalized point in the bounding box, inside or outside."""
        return (Fraction(1),) + tuple(Fraction(rng.randint(-8, 8), 8)
                                      for _ in points[0][1:])

    @staticmethod
    def _pushed_out(rng, points):
        vertex = rng.choice(points)
        return (Fraction(1),) + tuple(Fraction(9, 8) * c for c in vertex[1:])


# ---------------------------------------------------------------------------


class ThresholdBisect:
    """Noise-threshold brackets: about eight near-identical LPs per op.

    The first round starts by anchoring sharp X/Y at precision 1/128 on
    both sides (eight LPs each). Every round takes a seeded X/Y-like gbit
    pair that is incompatible at full visibility and brackets it at
    PRECISION (six LPs) from the JM and the LHS side, then brackets a
    fixed pair of sharp polygon effects (polygon-5, 8, 6, 8 in turn) on
    the JM side.
    """

    name = "threshold-bisect"
    CYCLE = 4
    ANCHOR_PRECISION = Fraction(1, 128)
    PRECISION = Fraction(1, 32)
    # polygon-8 brackets cost most, so it comes twice per cycle and p90
    # falls inside its cluster, not in the gap below it.
    POLYGONS = (5, 8, 6, 8)

    def setup(self, ctx: Context):
        gp = ctx.gp
        self.gbit = gp.zoo_gbit()
        self.phi = gp.canonical_max_entangled(self.gbit)
        self.fiducials = gp.square_fiducials(self.gbit)
        pairs = {}
        for n in set(self.POLYGONS):
            space = gp.zoo_polygon(n)
            sharp = [e for e in gp.extremal_effects(space) if any(e.coeffs[1:])]
            sharp.sort(key=lambda e: math.atan2(e.coeffs[2], e.coeffs[1]))
            pairs[n] = (space, sharp)
        self.polygons = [pairs[n] for n in self.POLYGONS]
        ctx.sizes.update(anchor_precision=str(self.ANCHOR_PRECISION),
                         precision=str(self.PRECISION), polygons=list(self.POLYGONS),
                         observables_per_family=2)

    def rounds(self, ctx: Context):
        rng = random.Random(ctx.seed)
        config = ctx.gp.SamplerConfig(seed=ctx.seed, min_observables=1, max_observables=1)
        for index in itertools.count():
            yield self._round(ctx, rng, config, self.polygons[index % len(self.polygons)],
                              anchor=index == 0)

    def _anchor(self, ctx):
        gp = ctx.gp
        eps = gp.as_ratio(self.ANCHOR_PRECISION.numerator, self.ANCHOR_PRECISION.denominator)
        expected = (Fraction(1, 2), Fraction(65, 128))
        jm = yield Op("jm_noise_threshold",
                      lambda: gp.jm_noise_threshold(self.fiducials, self.gbit, eps))
        with ctx.checking():
            require(frvec(jm) == expected, "X/Y JM bracket moved off (1/2, 65/128)")
        lhs = yield Op("lhs_noise_threshold",
                       lambda: gp.lhs_noise_threshold(self.fiducials, self.phi, eps))
        with ctx.checking():
            require(frvec(lhs) == expected, "X/Y LHS bracket moved off (1/2, 65/128)")

    def _rotated_pair(self, ctx, rng, config):
        """A seeded sharp gbit effect and its quarter turn, kept if the pair
        is incompatible at full visibility.

        The seeded effect is centered and pushed to the boundary of the
        effect polytope; the partner's direction is rotated by 90 degrees,
        so every pair is an X/Y-like pair in a seeded direction.
        """
        gp = ctx.gp
        half = gp.as_ratio(1, 2)
        while True:
            (obs,) = gp.random_observable_set(self.gbit, rng, config)
            _, c1, c2 = obs.effects[0].coeffs
            spread = abs(c1) + abs(c2)
            if spread == 0:
                continue
            a, b = half * c1 / spread, half * c2 / spread
            family = (gp.dichotomic_observable("u", self.gbit, gp.Effect((half, a, b))),
                      gp.dichotomic_observable("v", self.gbit, gp.Effect((half, -b, a))))
            if not gp.check_joint_measurability(family, self.gbit).jointly_measurable:
                return family

    def _round(self, ctx, rng, config, polygon, anchor):
        gp = ctx.gp
        if anchor:
            yield from self._anchor(ctx)
        eps = gp.as_ratio(self.PRECISION.numerator, self.PRECISION.denominator)
        family = self._rotated_pair(ctx, rng, config)
        jm = yield Op("jm_noise_threshold",
                      lambda: gp.jm_noise_threshold(family, self.gbit, eps))
        with ctx.checking():
            lo, hi = self._check_bracket(jm)
            require((lo, hi) != (1, 1), "family incompatible when sharp got bracket (1, 1)")
        lhs = yield Op("lhs_noise_threshold",
                       lambda: gp.lhs_noise_threshold(family, self.phi, eps))
        with ctx.checking():
            require(frvec(lhs) == (lo, hi), "JM and LHS brackets differ on the gbit")
        # Two sharp effects a quarter of the way round the polygon from each
        # other. The pair is fixed, like the X/Y anchor: the costs of the
        # possible pairs differ by half, which would set p90 by seed.
        space, sharp = polygon
        a, b = sharp[0], sharp[len(sharp) // 4]
        pair = (gp.dichotomic_observable("a", space, a), gp.dichotomic_observable("b", space, b))
        bracket = yield Op("jm_noise_threshold",
                           lambda: gp.jm_noise_threshold(pair, space, eps))
        with ctx.checking():
            self._check_bracket(bracket)

    def _check_bracket(self, bracket):
        lo, hi = frvec(bracket)
        if (lo, hi) != (1, 1):
            require(0 <= lo < hi <= 1, "bracket is not an interval in [0, 1]")
            require(hi - lo <= self.PRECISION, "bracket wider than the precision")
            require((lo * 2 ** 32).denominator == 1, "bisection left the dyadic grid")
        return lo, hi


# ---------------------------------------------------------------------------


def _ratio_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _vec_json(vec):
    return [_ratio_text(fr(c)) for c in vec]


def _vec_from_json(values):
    return tuple(Fraction(c) for c in values)


class CliReports:
    """In-process ``gptsteer.cli.main`` on seeded documents.

    Each round runs check-jm on a seeded family, check-lhs on what it
    steers out of the canonical state or a random separable state (in
    turn), tensor check-max on a separable state and on a stretched
    canonical state outside the maximal tensor product, tensor check-sep
    (separable and canonical in turn), zoo show gbit and a small
    fixed-seed theorem-verify. The benchmark writes the documents itself
    and reads the reports with the standard json module.
    """

    name = "cli-reports"
    CYCLE = 2
    # A fixed seed, so that this op's input and cost do not vary with --seed.
    THEOREM_ARGV = ("theorem-verify", "--model", "gbit", "--trials", "2", "--seed", "1",
                    "--extra-states", "1")

    def setup(self, ctx: Context):
        gp = ctx.gp
        importlib.import_module("gptsteer.cli")
        self.gbit = gp.zoo_gbit()
        self.phi = gp.canonical_max_entangled(self.gbit)
        self.vertices = _vertices(self.gbit)
        self.facets = checks.facets(self.vertices)
        self.effects = sorted(checks.effect_vertices(self.vertices))
        os.makedirs(ctx.workdir, exist_ok=True)
        # Stretching the canonical state's correlations by 3/2 leaves the
        # maximal tensor product.
        self.stretched = tuple(
            tuple(c if i == 0 or j == 0 else c * Fraction(3, 2) for j, c in enumerate(row))
            for i, row in enumerate(_matrix(self.phi)))
        ctx.sizes.update(observables_per_family=2, theorem_verify=list(self.THEOREM_ARGV))

    def run(self, ctx, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.gp.cli.main(list(argv))
        return code, out.getvalue()

    def rounds(self, ctx: Context):
        rng = random.Random(ctx.seed)
        config = ctx.gp.SamplerConfig(seed=ctx.seed, min_observables=2, max_observables=2)
        first_theorem = []
        for index in itertools.count():
            yield self._round(ctx, rng, config, index, first_theorem)

    def _write(self, ctx, name, payload) -> str:
        path = os.path.join(ctx.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def _report(self, code, text):
        report = json.loads(text)
        require(report["schema"] == "gptsteer/1", "report has the wrong schema")
        require(report["exit_status"] == code, "report and exit code disagree")
        return report["result"]

    def _check_max(self, ctx, matrix):
        state_path = self._write(ctx, "state.json", {
            "schema": "gptsteer/1", "space_a": "gbit", "space_b": "gbit",
            "matrix": [[_ratio_text(c) for c in row] for row in matrix]})
        member = checks.in_max_tensor(matrix, self.effects, self.effects)
        code, text = yield Op("tensor check-max", lambda: self.run(
            ctx, ["tensor", "check-max", "--state-file", state_path]))
        with ctx.checking():
            result = self._report(code, text)
            require(code == (0 if member else 1), "check-max exit code is wrong")
            if not member:
                violation = result["violation"]
                ea = _vec_from_json(violation["effect_a"])
                eb = _vec_from_json(violation["effect_b"])
                require(checks.effect_valid(ea, self.vertices) and
                        checks.effect_valid(eb, self.vertices), "violation uses invalid effects")
                value = checks.dot(checks.row_times(ea, matrix), eb)
                require(value < 0 and value == Fraction(violation["value"]),
                        "violation value is wrong")

    def _round(self, ctx, rng, config, index, first_theorem):
        gp = ctx.gp
        family = gp.random_observable_set(self.gbit, rng, config)
        fam = _family(family)
        observables = [{"label": obs.label, "outcomes": list(obs.outcomes),
                        "effects": [_vec_json(e.coeffs) for e in obs.effects]}
                       for obs in family]
        obs_path = self._write(ctx, "obs.json", {"schema": "gptsteer/1", "space": "gbit",
                                                 "observables": observables})
        code, text = yield Op("check-jm", lambda: self.run(ctx, ["check-jm", "--obs-file",
                                                                 obs_path]))
        with ctx.checking():
            result = self._report(code, text)
            compatible = result["status"] == "jointly_measurable"
            if compatible:
                require(code == 0, "compatible family did not exit 0")
                checks.check_mother([_vec_from_json(e) for e in result["mother"]["effects"]],
                                    fam, self.vertices)
            else:
                require(code == 1, "incompatible family did not exit 1")
                checks.check_farkas(*checks.jm_rows(fam, self.vertices),
                                    _vec_from_json(result["certificate"]))

        separable = gp.random_max_tensor_state(self.gbit, self.gbit, rng, config.denominator)
        state = self.phi if index % 2 else separable
        elements = checks.assemblage_of(_matrix(state), fam)
        asm_path = self._write(ctx, "asm.json", {
            "schema": "gptsteer/1", "space": "gbit",
            "settings": [obs.label for obs in family],
            "outcomes": [list(obs.outcomes) for obs in family],
            "elements": [[[_ratio_text(c) for c in e] for e in row] for row in elements]})
        code, text = yield Op("check-lhs", lambda: self.run(ctx, ["check-lhs", "--asm-file",
                                                                  asm_path]))
        with ctx.checking():
            result = self._report(code, text)
            if result["status"] == "unsteerable":
                require(code == 0, "unsteerable assemblage did not exit 0")
                lambdas = [(Fraction(lam["weight"]), _vec_from_json(lam["state"]),
                            [_vec_from_json(row) for row in lam["responses"]])
                           for lam in result["model"]["lambdas"]]
                checks.check_lhs_model(lambdas, elements, self.vertices, self.facets)
            else:
                require(code == 1, "steerable assemblage did not exit 1")
                checks.check_farkas(*checks.lhs_rows(elements, self.vertices),
                                    _vec_from_json(result["certificate"]))
            require((result["status"] == "unsteerable") == (compatible or state is separable),
                    "check-lhs disagrees with the theorem")

        yield from self._check_max(ctx, _matrix(separable))
        yield from self._check_max(ctx, self.stretched)

        sep_matrix = _matrix(state)
        sep_path = self._write(ctx, "sep.json", {
            "schema": "gptsteer/1", "space_a": "gbit", "space_b": "gbit",
            "matrix": [[_ratio_text(c) for c in row] for row in sep_matrix]})
        code, text = yield Op("tensor check-sep", lambda: self.run(
            ctx, ["tensor", "check-sep", "--state-file", sep_path]))
        with ctx.checking():
            result = self._report(code, text)
            require(code == (0 if state is separable else 1), "check-sep exit code is wrong")
            if code == 0:
                dec = result["decomposition"]
                checks.check_decomposition(
                    [Fraction(w) for w in dec["weights"]],
                    [tuple(_vec_from_json(v) for v in pair) for pair in dec["pairs"]],
                    sep_matrix, self.vertices, self.vertices)
            else:
                checks.check_farkas(*checks.separability_rows(sep_matrix, self.vertices,
                                                              self.vertices),
                                    _vec_from_json(result["certificate"]))

        code, text = yield Op("zoo show", lambda: self.run(ctx, ["zoo", "show", "gbit"]))
        with ctx.checking():
            result = self._report(code, text)
            listed = {_vec_from_json(e) for e in result["extremal_effects"]}
            require(code == 0 and listed == set(self.effects), "zoo show lists wrong effects")

        code, text = yield Op("theorem-verify", lambda: self.run(ctx, self.THEOREM_ARGV))
        with ctx.checking():
            result = self._report(code, text)
            require(code == 0 and result["all_agree"], "theorem-verify found a disagreement")
            if not first_theorem:
                first_theorem.append(text)
            require(text == first_theorem[0], "fixed-seed theorem-verify is not byte-identical")


WORKLOADS = {w.name: w for w in (TheoremGbit, GeometryCold, ThresholdBisect, CliReports)}
