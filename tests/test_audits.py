"""The library's audits are real exceptions, not asserts."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gptsteer

PACKAGE_DIR = Path(gptsteer.__file__).resolve().parent

# Under -O, corrupt the simplex witness by one unit and report what
# lp_feasible does with it.
BAD_WITNESS_SCRIPT = """
from gptsteer import exactlp

assert False, "this interpreter is not running under -O"

clean = exactlp._Tableau.extract_point


def off_by_one(self):
    point = clean(self)
    return (point[0] + 1,) + point[1:]


exactlp._Tableau.extract_point = off_by_one
system = exactlp.LinearSystem.build(2, equalities=[((1, 1), 1)],
                                    inequalities=[((1, 0), 0), ((0, 1), 0)])
try:
    result = exactlp.lp_feasible(system)
except Exception as err:
    print(type(err).__name__)
else:
    print("returned", result.status, result.witness)
"""


# Under -O, corrupt one optimality multiplier by one unit and report what
# lp_optimize does with it.
BAD_OPTIMUM_SCRIPT = """
from gptsteer import exactlp

assert False, "this interpreter is not running under -O"

clean = exactlp._Tableau.phase_two


def off_by_one(self, objective):
    status, value, certificate = clean(self, objective)
    return status, value, (certificate[0] + 1,) + certificate[1:]


exactlp._Tableau.phase_two = off_by_one
system = exactlp.LinearSystem.build(2, equalities=[((1, 1), 1)],
                                    inequalities=[((1, 0), 0), ((0, 1), 0)])
try:
    result = exactlp.lp_optimize((1, 2), system, "max")
except Exception as err:
    print(type(err).__name__)
else:
    print("returned", result.status, result.certificate)
"""


# The mutations below, each run on a system for each row store: the wide
# one of the scripts above and a narrow one; prints the store and the
# outcome per system, an exception by type and message, since the audits
# of one call all raise VerificationError.
MUTATE_WITNESS = """
clean = exactlp._Tableau.extract_point


def off_by_one(self):
    point = clean(self)
    return (point[0] + 1,) + point[1:]


exactlp._Tableau.extract_point = off_by_one
solve = exactlp.lp_feasible
"""

MUTATE_OPTIMUM = """
clean = exactlp._Tableau.phase_two


def off_by_one(self, objective):
    status, value, certificate = clean(self, objective)
    return status, value, (certificate[0] + 1,) + certificate[1:]


exactlp._Tableau.phase_two = off_by_one
solve = lambda system: exactlp.lp_optimize((1, 2), system, "max")
"""

# Phase one's Farkas certificate with one multiplier off by one, on the
# same systems with x + y = -1 in place of x + y = 1: the same shapes, so
# the same stores, and both infeasible.
MUTATE_FARKAS = """
clean = exactlp._Tableau.multipliers


def off_by_one(self, art_cost):
    multipliers = clean(self, art_cost)
    return (multipliers[0] + 1,) + multipliers[1:]


exactlp._Tableau.multipliers = off_by_one


def solve(system):
    equalities = tuple((coeffs, -rhs) for coeffs, rhs in system.equalities)
    return exactlp.lp_feasible(exactlp.LinearSystem(system.variable_count, equalities,
                                                    system.inequalities))
"""

# The decomposition of a separable polygon-5 state, mixed from two vertex
# products, passed to the separability audit clean, with its first weight
# halved, and with the two pairs' B vertices swapped.
BAD_DECOMPOSITION_SCRIPT = """
from dataclasses import replace

from gptsteer import composites
from gptsteer.kernel import State, zoo_polygon
from gptsteer.ratio import as_ratio

assert False, "this interpreter is not running under -O"

space = zoo_polygon(5)
v = [State(x) for x in space.vertices]
state = composites.mix_bipartite_states(
    [composites.product_state(space, v[0], space, v[1]),
     composites.product_state(space, v[2], space, v[3])], (as_ratio(1, 3), as_ratio(2, 3)))
clean = composites.is_separable(state).decomposition
(a, b), (c, d) = clean.pairs
for decomposition in (clean, replace(clean, weights=(clean.weights[0] / 2, clean.weights[1])),
                      replace(clean, pairs=((a, d), (c, b)))):
    try:
        composites._check_decomposition(state, decomposition)
    except Exception as err:
        print(type(err).__name__)
    else:
        print("accepted")
"""

# Two more for lp_optimize, after the solve: the optimal point off by one
# unit, and the optimal value off by one unit with point and certificate clean.
MUTATE_OPTIMAL_POINT = """
clean = exactlp._Tableau.extract_point


def off_by_one(self):
    point = clean(self)
    return (point[0] + 1,) + point[1:]


exactlp._Tableau.extract_point = off_by_one
solve = lambda system: exactlp.lp_optimize((1, 2), system, "max")
"""

MUTATE_OPTIMAL_VALUE = """
clean = exactlp._Tableau.phase_two


def off_by_one(self, objective):
    status, value, certificate = clean(self, objective)
    return status, value + 1, certificate


exactlp._Tableau.phase_two = off_by_one
solve = lambda system: exactlp.lp_optimize((1, 2), system, "max")
"""

ON_BOTH_STORES = """
from gptsteer import exactlp

assert False, "this interpreter is not running under -O"
{mutation}
bounds = [((1, 0), 0), ((0, 1), 0)]
wide = exactlp.LinearSystem.build(2, equalities=[((1, 1), 1)], inequalities=bounds)
narrow = exactlp.LinearSystem.build(2, equalities=[((1, 1), 1), ((1, -1), 0)],
                                    inequalities=bounds)
for system in (wide, narrow):
    store = exactlp._tableau(system).store
    try:
        result = solve(system)
    except Exception as err:
        print(store, f"{{type(err).__name__}}: {{err}}")
    else:
        print(store, "returned", result.status)
"""

# The steering audits, each run on the gbit's canonical state after one
# mutation; prints what the audited call does, an exception by type and
# message, since several audits of one call raise the same type.
ON_THE_CANONICAL_STATE = """
from gptsteer import steering
from gptsteer.compatibility import check_joint_measurability
from gptsteer.composites import canonical_max_entangled
from gptsteer.exactlp import FeasibilityResult
from gptsteer.kernel import square_fiducials, zoo_gbit
from gptsteer.ratio import as_ratio

assert False, "this interpreter is not running under -O"

gbit = zoo_gbit()
phi = canonical_max_entangled(gbit)
X, Y = square_fiducials(gbit)
clean_lp = steering.lp_feasible
clean_model = steering._deterministic_model
{mutation}
try:
    result = run()
except Exception as err:
    print(f"{{type(err).__name__}}: {{err}}")
else:
    print("returned", result)
"""

# Each hidden state answers the next outcome to every setting: a valid
# local model that misses the assemblage, audited by check_lhs...
SHIFTED_RESPONSES = """
def shifted(shape, parts):
    return clean_model(shape, ((tuple([(k + 1) % len(row) for k, row in
                                       zip(strategy, shape.outcomes)]), ints, den)
                               for strategy, ints, den in parts))


steering._deterministic_model = shifted
"""

MODEL_MISSES = SHIFTED_RESPONSES + """
run = lambda: steering.check_lhs(steering.assemblage_from(phi, (X,)))
"""

# ... and by jm_to_lhs on a mother observable.
MOTHER_MODEL_MISSES = SHIFTED_RESPONSES + """
run = lambda: steering.jm_to_lhs(check_joint_measurability((X,), gbit).mother, phi)
"""

# The steering functional negated: negative on the assemblage.
FUNCTIONAL_NEGATED = """
def negated(system):
    result = clean_lp(system)
    return FeasibilityResult(result.status,
                             certificate=tuple([-c for c in result.certificate]))


steering.lp_feasible = negated
run = lambda: steering.check_lhs(steering.assemblage_from(phi, (X, Y)))
"""

# The steering functional replaced by the unit effect on every element:
# positive on the assemblage and on every local strategy.
FUNCTIONAL_OF_WEIGHTS = """
def weights(system):
    result = clean_lp(system)
    unit = (1, 0, 0) * 4
    return FeasibilityResult(result.status, certificate=tuple(
        [as_ratio(c) for c in unit] + [as_ratio(0)] * (len(result.certificate) - len(unit))))


steering.lp_feasible = weights
run = lambda: steering.check_lhs(steering.assemblage_from(phi, (X, Y)))
"""

# The conditioning effect off by one unit in its first coefficient.
CONDITIONING_OFF_BY_ONE = """
def off_by_one(system):
    result = clean_lp(system)
    witness = result.witness
    return FeasibilityResult(result.status, witness=(witness[0] + 1,) + witness[1:])


steering.lp_feasible = off_by_one
half = as_ratio(1, 2)
run = lambda: steering.find_conditioning_effect(phi, (half, half, half))
"""


def test_no_bare_asserts_in_package():
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_oracles_stay_independent_of_the_package():
    path = Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "gptsteer"] == []


def test_tracer_names_resolve():
    # bench/tracing.py rebinds gptsteer functions by name; read its lists
    # without importing it and check that each name still exists.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lists = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name)
             and target.id in ("WRAPPED", "SAMPLER_EFFECT_TEST")}
    names = list(lists["WRAPPED"]) + [tuple(lists["SAMPLER_EFFECT_TEST"].split(".", 1))]
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(f"gptsteer.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_import_in_package_modules_is_used():
    unused = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert sorted(unused) == []


def test_private_helpers_and_vecs_functions_are_used():
    # A private module-level function, or any function of vecs, must be
    # referenced somewhere in the package outside its own body.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE_DIR.rglob("*.py"))}

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    everywhere = Counter(name for tree in trees.values() for name in names(tree))
    dead = [f"{file}:{node.name}" for file, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and (node.name.startswith("_") or file == "vecs.py")
            and everywhere[node.name] == names(node).count(node.name)]
    assert dead == []


def test_only_ratio_imports_fractions():
    # Fraction is the package's one rational type, and ratio.py its one owner
    importers = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        if any(module.split(".")[0] == "fractions" for module in modules):
            importers.append(path.name)
    assert importers == ["ratio.py"]


def test_no_module_caches_with_functools():
    # Geometry is kept on the objects it describes and the CLI parser is a
    # module constant, so no function needs lru_cache or cache.
    caches = {"lru_cache", "cache"}
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name in caches]
            elif (isinstance(node, ast.Attribute) and node.attr in caches
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                offenders.append(f"{path.name}:{node.lineno} {node.attr}")
    assert offenders == []


# With a module named gmpy2 that exposes mpq importable, report which
# rational type the package hands out.
STUB_GMPY2 = """
from fractions import Fraction


class mpq(Fraction):
    pass
"""

RATIONAL_TYPE_SCRIPT = """
import fractions

import gmpy2
import gptsteer
from gptsteer.ratio import as_ratio

print(gmpy2.__file__)
print(gptsteer.RATIONAL_BACKEND, type(as_ratio(1)) is fractions.Fraction)
"""


def test_an_importable_gmpy2_does_not_change_the_rational_type(tmp_path):
    (tmp_path / "gmpy2.py").write_text(STUB_GMPY2, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                      str(PACKAGE_DIR.parent)]))
    proc = subprocess.run([sys.executable, "-c", RATIONAL_TYPE_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stub_path, verdict = proc.stdout.splitlines()
    assert Path(stub_path).parent == tmp_path
    assert verdict == "fractions True"


def _run_optimized(script):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_witness_audit_survives_optimize_flag():
    assert _run_optimized(BAD_WITNESS_SCRIPT) == "VerificationError"


def test_optimality_audit_survives_optimize_flag():
    assert _run_optimized(BAD_OPTIMUM_SCRIPT) == "VerificationError"


@pytest.mark.parametrize("mutation, message", [
    (MUTATE_WITNESS, "witness fails substitution"),
    (MUTATE_OPTIMUM, "optimality certificate fails substitution"),
    (MUTATE_FARKAS, "Farkas certificate fails substitution"),
], ids=["witness", "optimum", "farkas"])
def test_audits_survive_optimize_flag_on_both_stores(mutation, message):
    output = _run_optimized(ON_BOTH_STORES.format(mutation=mutation))
    assert output.splitlines() == [f"{store} VerificationError: {message}"
                                   for store in ("basis-inverse", "full")]


def test_decomposition_audit_survives_optimize_flag():
    output = _run_optimized(BAD_DECOMPOSITION_SCRIPT)
    assert output.splitlines() == ["accepted", "VerificationError", "VerificationError"]


@pytest.mark.parametrize("mutation, message", [
    (MUTATE_OPTIMAL_POINT, "optimizer left the feasible set"),
    (MUTATE_OPTIMAL_VALUE, "optimal point does not attain the optimal value"),
], ids=["point", "value"])
def test_optimum_audits_survive_optimize_flag_on_both_stores(mutation, message):
    output = _run_optimized(ON_BOTH_STORES.format(mutation=mutation))
    assert output.splitlines() == [f"{store} VerificationError: {message}"
                                   for store in ("basis-inverse", "full")]


@pytest.mark.parametrize("mutation, raised", [
    (MODEL_MISSES, "VerificationError: local model fails to reproduce the assemblage"),
    (MOTHER_MODEL_MISSES, "ConstructionError: mother-derived model misses the assemblage"),
    (FUNCTIONAL_NEGATED,
     "VerificationError: steering functional is not positive on the assemblage"),
    (FUNCTIONAL_OF_WEIGHTS,
     "VerificationError: steering functional is positive on a local strategy"),
    (CONDITIONING_OFF_BY_ONE, "VerificationError: conditioning witness fails to reproduce target"),
], ids=["lhs-model", "mother-model", "functional-negated", "functional-of-weights",
        "conditioning"])
def test_steering_audits_survive_optimize_flag(mutation, raised):
    assert _run_optimized(ON_THE_CANONICAL_STATE.format(mutation=mutation)) == raised
