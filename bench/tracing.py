"""Per-function call counts and self time, measured from outside the package.

Each traced function is replaced by a wrapper in every ``bieberbach`` module
namespace that holds it, which catches both module-internal calls and names
bound elsewhere through ``from .x import y``. Only per-function totals are
kept in memory: mat_mul and compose run millions of times per run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> functions whose calls and self time are reported
TIMED = {
    "linalg": ("snf", "hnf", "solve_diophantine", "rational_kernel", "saturate",
               "complete_basis"),
    "affine": ("compose", "inverse", "holonomy_closure", "is_torsion_free",
               "fixed_space_rank", "validate"),
    "finite_groups": ("is_solvable", "sylow_all_cyclic", "_close_subgroup"),
    "calabi": ("splitting_basis", "kernel_group"),
    "decider": ("decide",),
    "hw": ("hw_search", "candidate_pairs", "build_relator_system", "verify_embedding"),
    "witness": ("ball", "peel", "extremal_points", "verify_no_extremal_certificate"),
    "catalog": ("parse_group", "load_catalog", "group_row"),
    "cli": ("run_cli",),
}
# module -> functions whose calls only are counted (their time stays with the caller)
COUNTED = {"linalg": ("mat_mul", "inverse_unimodular")}

RATIOS = ("decider.decide.levels", "hw.candidate_pairs.kept_ratio",
          "hw.systems.feasible_ratio", "witness.extremal_points.kept_ratio")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, funcs in TIMED.items():
        for f in funcs:
            out += [(f"{mod}.{f}.calls", "count"), (f"{mod}.{f}.self_s", "s")]
    for mod, funcs in COUNTED.items():
        out += [(f"{mod}.{f}.calls", "count") for f in funcs]
    out += [(RATIOS[0], "count")] + [(r, "ratio") for r in RATIOS[1:]]
    return out


class Tracer:
    """Installs wrappers on the loaded package and aggregates what they see."""

    def __init__(self, package: str = "bieberbach"):
        self.package = package
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # numerator / denominator pairs for the ratio metrics
        self.tally: Counter = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for mod, funcs in table.items():
                source = sys.modules[f"{self.package}.{mod}"]
                for fname in funcs:
                    orig = getattr(source, fname)
                    key = f"{mod}.{fname}"
                    wrapper = (self._timed(key, orig, _POST.get(key)) if timed
                               else self._counted(key, orig))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                self._undo.append((m, attr, orig))
                                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def _counted(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key, fn, post):
        calls, self_s, stack, tally = self.calls, self.self_s, self._stack, self.tally
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                post(tally, args, result)
            return result
        return wrapper

    def ratios(self) -> dict[str, float]:
        t = self.tally

        def div(a, b):
            return t[a] / t[b] if t[b] else 0.0
        return {
            "decider.decide.levels": div("levels", "decides"),
            "hw.candidate_pairs.kept_ratio": div("pairs_kept", "pairs_tested"),
            "hw.systems.feasible_ratio": div("systems_feasible", "systems"),
            "witness.extremal_points.kept_ratio": div("extremal_kept", "extremal_in"),
        }


def _post_decide(tally, args, verdict):
    tally["decides"] += 1
    tally["levels"] += len(verdict.chain)


def _post_candidate_pairs(tally, args, pairs):
    tally["pairs_tested"] += args[0].order ** 2
    tally["pairs_kept"] += len(pairs)


def _post_hw_search(tally, args, report):
    # the search stops at the first system that yields an embedding
    feasible = report.feasible_unverified + (report.outcome == "contained")
    tally["systems"] += len(report.infeasible_witnesses) + feasible
    tally["systems_feasible"] += feasible


def _post_extremal_points(tally, args, result):
    tally["extremal_in"] += len(args[0])
    tally["extremal_kept"] += len(result)


_POST = {
    "decider.decide": _post_decide,
    "hw.candidate_pairs": _post_candidate_pairs,
    "hw.hw_search": _post_hw_search,
    "witness.extremal_points": _post_extremal_points,
}
