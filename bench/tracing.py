"""Span tracing of gptsteer's public functions, from outside the package.

``Tracer.install`` rebinds each listed function to a span-recording
wrapper in every ``gptsteer.*`` module that holds it, so calls inside a
module (``lp_feasible`` calling ``refutes``) are caught too. Each span
records its name, start, end, parent span and op id; spans stay in
memory and are written out by ``write_spans`` when the run ends.

Counts, shapes, bit lengths and yields are taken from call arguments
and return values, so they repeat exactly at a fixed seed. ``ratio`` and
the leaf helpers of ``vecs`` (``dot``, ``qvec``, ``as_ratio``) run
millions of times per run; a wrapper would cost more than they do, so
their time shows as self time of their callers.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute) of each wrapped function; "Class.method" wraps a method.
WRAPPED = (
    ("exactlp", "lp_feasible"), ("exactlp", "lp_optimize"),
    ("exactlp", "refutes"), ("exactlp", "satisfies"),
    ("exactlp", "vertex_enumerate"), ("exactlp", "cone_member"),
    ("exactlp", "convex_member"),
    ("vecs", "solve_unique"),
    ("kernel", "extremal_effects"), ("kernel", "state_cone_facets"),
    ("kernel", "is_valid_state"),
    ("composites", "in_max_tensor"), ("composites", "is_separable"),
    ("composites", "canonical_max_entangled"),
    ("composites", "verify_entanglement_certificate"),
    ("compatibility", "jm_linear_system"),
    ("compatibility", "check_joint_measurability"),
    ("compatibility", "MotherObservable.validate"),
    ("compatibility", "jm_noise_threshold"),
    ("compatibility", "verify_incompatibility_certificate"),
    ("steering", "lhs_linear_system"), ("steering", "check_lhs"),
    ("steering", "assemblage_from"), ("steering", "jm_to_lhs"),
    ("steering", "reconstruct_assemblage"), ("steering", "LhsModel.validate"),
    ("steering", "functional_value"), ("steering", "functional_strategy_bound"),
    ("steering", "lhs_noise_threshold"), ("steering", "find_conditioning_effect"),
    ("sampler", "random_effect"), ("sampler", "random_dichotomic"),
    ("sampler", "random_observable_set"), ("sampler", "random_state"),
    ("sampler", "random_product_state"), ("sampler", "random_separable_state"),
    ("sampler", "random_max_tensor_state"), ("sampler", "random_decomposition"),
    ("serialize", "load_json"), ("serialize", "space_from_json"),
    ("serialize", "observables_doc_from_json"),
    ("serialize", "assemblage_doc_from_json"),
    ("serialize", "bipartite_doc_from_json"),
    ("serialize", "dumps_canonical"), ("serialize", "space_to_json"),
    ("serialize", "observables_doc_to_json"), ("serialize", "assemblage_doc_to_json"),
    ("serialize", "bipartite_doc_to_json"), ("serialize", "jm_result_to_json"),
    ("serialize", "lhs_result_to_json"), ("serialize", "separability_result_to_json"),
    ("serialize", "theorem_report_to_json"),
    ("cli", "main"),
)

# is_valid_effect is wrapped only where gptsteer.sampler bound it, to count
# how many drawn effects the rejection sampler accepts.
SAMPLER_EFFECT_TEST = "sampler.is_valid_effect"

SOLVES = ("exactlp.lp_feasible", "exactlp.lp_optimize")

# A solve belongs to the LP family of its nearest wrapped caller among these.
FAMILY_OF = {
    "compatibility.check_joint_measurability": "jm",
    "steering.check_lhs": "lhs",
    "steering.find_conditioning_effect": "conditioning",
    "composites.is_separable": "separability",
    "exactlp.convex_member": "membership",
    "exactlp.cone_member": "cone",
    "exactlp.vertex_enumerate": "vertex",
}
FAMILIES = ("jm", "lhs", "conditioning", "separability", "membership", "cone", "vertex")

THRESHOLDS = ("compatibility.jm_noise_threshold", "steering.lhs_noise_threshold")

STEERING_AUDITS = ("steering.reconstruct_assemblage", "steering.LhsModel.validate",
                   "steering.functional_value", "steering.functional_strategy_bound")
CLI_AUDITS = ("compatibility.MotherObservable.validate",
              "compatibility.verify_incompatibility_certificate",
              "composites.verify_entanglement_certificate",
              "exactlp.refutes", "exactlp.satisfies", "steering.reconstruct_assemblage")


def _group(name: str) -> str | None:
    """Spans whose time is summed per group, counting only the outermost."""
    module, _, func = name.partition(".")
    if module == "sampler" and name != SAMPLER_EFFECT_TEST:
        return "sampler.draw"
    if module == "serialize":
        return "serialize.parse" if func.endswith("from_json") or func == "load_json" \
            else "serialize.emit"
    return None


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or ".solve_s." in name:
        return "s"
    if name.endswith("solves_per_op"):
        return "solves/op"
    if name.endswith(("_ratio", "yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def _bits(values) -> int:
    best = 0
    for v in values:
        best = max(best, int(v.numerator).bit_length(), int(v.denominator).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []          # (name, start, end, parent, op)
        self._stack: list[list] = []          # [index, name, child_time, group]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.solve_s = defaultdict(float)
        self.cells_max = 0
        self.bits_max = 0
        self._facet_spaces = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"gptsteer.{name}")
                   for name in {m for m, _ in WRAPPED}}
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gptsteer" or name.startswith("gptsteer."))]
        for module_name, attr in WRAPPED:
            span = f"{module_name}.{attr}"
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(modules[module_name], cls_name)
                setattr(cls, method, self._wrap(span, getattr(cls, method)))
                continue
            original = getattr(modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
        sampler = modules["sampler"]
        sampler.is_valid_effect = self._wrap(SAMPLER_EFFECT_TEST, sampler.is_valid_effect)

    def _wrap(self, name, fn):
        group = _group(name)

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, name, 0.0, group]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.spans[index] = (name, start, end,
                                     None if parent is None else parent[0], self.op)
                own = duration - frame[2]
                self.calls[name] += 1
                self.self_s[name] += own
                if parent is not None:
                    parent[2] += duration
                if group is not None and (parent is None or parent[3] != group):
                    self.group_s[group] += duration
                if parent is not None and parent[1] == "cli.main" and name in CLI_AUDITS:
                    self.group_s["cli.audit"] += duration
            self._observe(name, args, kwargs, result, own)
            return result

        return traced

    # -- deterministic counts ------------------------------------------------

    def _observe(self, name, args, kwargs, result, own) -> None:
        counts = self.counts
        if name in SOLVES:
            system = args[0] if name == "exactlp.lp_feasible" else \
                (args[1] if len(args) > 1 else kwargs["system"])
            cells = system.row_count * system.variable_count
            counts["lp_cells"] += cells
            self.cells_max = max(self.cells_max, cells)
            if result.status == "infeasible":
                counts["infeasible"] += 1
            evidence = [v for v in (getattr(result, "witness", None), result.certificate,
                                    getattr(result, "point", None)) if v]
            if getattr(result, "value", None) is not None:
                evidence.append((result.value,))
            for vec in evidence:
                self.bits_max = max(self.bits_max, _bits(vec))
            family = next((FAMILY_OF[f[1]] for f in reversed(self._stack) if f[1] in FAMILY_OF),
                          None)
            if family is not None:
                counts[f"solves.{family}"] += 1
                self.solve_s[family] += own
            for frame in self._stack:
                if frame[1] in THRESHOLDS:
                    counts[f"solves_in.{frame[1]}"] += 1
        elif name == "exactlp.vertex_enumerate":
            system = args[0]
            if result:
                halfspaces = len(system.inequalities) + 2 * len(system.equalities)
                counts["vertex.tried"] += math.comb(halfspaces, system.variable_count)
                counts["vertex.found"] += len(result)
        elif name == "kernel.state_cone_facets":
            space = args[0]
            if space not in self._facet_spaces:
                self._facet_spaces.add(space)
                kernel = sys.modules["gptsteer.kernel"]
                candidates = [e for e in kernel.extremal_effects(space)
                              if any(c != 0 for c in e.coeffs)]
                counts["facet.candidates"] += len(candidates)
                counts["facet.found"] += len(result)
        elif name == SAMPLER_EFFECT_TEST:
            counts["effect.accepted"] += bool(result)
        elif name == "serialize.dumps_canonical" and self.op is not None:
            counts["report_bytes"] += len(result.encode())

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        c, self_s, counts = self.calls, self.self_s, self.counts
        solves = c["exactlp.lp_feasible"] + c["exactlp.lp_optimize"]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "exactlp.lp_feasible.calls": c["exactlp.lp_feasible"],
            "exactlp.lp_feasible.self_s": self_s["exactlp.lp_feasible"],
            "exactlp.lp_optimize.calls": c["exactlp.lp_optimize"],
            "exactlp.lp_optimize.self_s": self_s["exactlp.lp_optimize"],
        }
        for family in FAMILIES:
            out[f"exactlp.solves.{family}"] = counts[f"solves.{family}"]
        for family in FAMILIES:
            out[f"exactlp.solve_s.{family}"] = self.solve_s[family]
        out.update({
            "exactlp.lp_cells": counts["lp_cells"],
            "exactlp.lp_cells_max": self.cells_max,
            "exactlp.infeasible_ratio": ratio(counts["infeasible"], solves),
            "exactlp.bits_max": self.bits_max,
            "exactlp.audit_s": self_s["exactlp.refutes"] + self_s["exactlp.satisfies"],
            "exactlp.vertex_enumerate.self_s": self_s["exactlp.vertex_enumerate"],
            "exactlp.vertex_enumerate.yield": ratio(counts["vertex.found"],
                                                    counts["vertex.tried"]),
            "vecs.solve_unique.calls": c["vecs.solve_unique"],
            "vecs.solve_unique.self_s": self_s["vecs.solve_unique"],
            "kernel.extremal_effects.self_s": self_s["kernel.extremal_effects"],
            "kernel.state_cone_facets.self_s": self_s["kernel.state_cone_facets"],
            "kernel.facet_yield": ratio(counts["facet.found"], counts["facet.candidates"]),
            "kernel.is_valid_state.calls": c["kernel.is_valid_state"],
            "kernel.is_valid_state.self_s": self_s["kernel.is_valid_state"],
            "composites.in_max_tensor.calls": c["composites.in_max_tensor"],
            "composites.in_max_tensor.self_s": self_s["composites.in_max_tensor"],
            "composites.is_separable.self_s": self_s["composites.is_separable"],
            "composites.canonical_max_entangled.self_s":
                self_s["composites.canonical_max_entangled"],
            "compatibility.jm_linear_system.self_s": self_s["compatibility.jm_linear_system"],
            "compatibility.check_joint_measurability.self_s":
                self_s["compatibility.check_joint_measurability"],
            "compatibility.mother_validate_s":
                self_s["compatibility.MotherObservable.validate"],
            "compatibility.jm_noise_threshold.solves_per_op":
                ratio(counts["solves_in.compatibility.jm_noise_threshold"],
                      c["compatibility.jm_noise_threshold"]),
            "steering.lhs_linear_system.self_s": self_s["steering.lhs_linear_system"],
            "steering.check_lhs.self_s": self_s["steering.check_lhs"],
            "steering.assemblage_from.self_s": self_s["steering.assemblage_from"],
            "steering.jm_to_lhs.self_s": self_s["steering.jm_to_lhs"],
            "steering.audit_s": sum(self_s[n] for n in STEERING_AUDITS),
            "steering.lhs_noise_threshold.solves_per_op":
                ratio(counts["solves_in.steering.lhs_noise_threshold"],
                      c["steering.lhs_noise_threshold"]),
            "sampler.draw_s": self.group_s["sampler.draw"],
            "sampler.effect_accept_ratio": ratio(counts["effect.accepted"],
                                                 c[SAMPLER_EFFECT_TEST]),
            "serialize.parse_s": self.group_s["serialize.parse"],
            "serialize.emit_s": self.group_s["serialize.emit"],
            "serialize.report_bytes": counts["report_bytes"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.audit_s": self.group_s["cli.audit"],
        })
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent span index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
