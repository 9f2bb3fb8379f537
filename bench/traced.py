"""Runs one `tgw` command in this process with each layer's functions
wrapped in spans, then writes per-layer totals as JSON.

usage: python3 bench/traced.py OUT.json TGW-ARGS...

A span records its layer, start, end and parent span; spans stay in memory
until the command ends, and each layer's self time is then computed from
them as span duration minus the time its child spans cover.  Every name a
module bound by `from .x import f` is re-bound too, so calls made through
any module are seen.  The report on stdout and the exit code are the
command's own.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

import tgw.cli as cli
from tgw import theories


def _public(module) -> list[str]:
    return [name for name, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not name.startswith("_")]


# layer -> (module, functions or Class.method names); None means every
# public function the module defines.
LAYERS = {
    "theories.diagrams": ("theories", ["diagrams_over"]),
    "theories.enumerate": ("theories", ["enumerate_types"]),
    "theories.restrict": ("theories", ["CompleteType.restrict",
                                       "CompleteType.restrict_vars"]),
    "theories.qe": ("theories", ["eliminate_quantifiers"]),
    "theories.canonical": ("theories", ["canonical_form"]),
    "theories.diagram_formula": ("theories", ["CompleteType.diagram_formula"]),
    "groupoid.table": ("groupoid", ["LevelTable.__init__"]),
    "groupoid.axioms": ("groupoid", ["verify_level_axioms"]),
    "groupoid.clopen": ("groupoid", [
        "clopen", "en_clopen", "base_clopen", "compose_clopen", "invert_clopen",
        "source_clopen", "target_clopen", "contains_base", "clopen_le",
        "clopen_equiv", "separating_type", "is_subgroupoid", "minimal_en_index",
        "project_clopen", "act_clopen", "is_en_invariant", "merge_tape"]),
    "rich.relativize": ("rich", ["RichSequence.relativize_exists",
                                 "RichSequence.relativize_forall"]),
    "rich.dphi": ("rich", ["RichSequence.dphi_formula", "RichSequence.dphi_conjunct"]),
    "rich.stream": ("rich", ["_CanonicalStream.item", "_CanonicalStream.rank_of"]),
    "models.evaluate": ("models", ["evaluate"]),
    "models.dtuple": ("models", ["build_dtuple", "certify_dtuple"]),
    "models.tuple_type": ("models", ["tuple_type"]),
    "reconstruction": ("reconstruction", None),
    "categorical": ("categorical", None),
    "formula.conj": ("formula", ["conj"]),
    "formula.render": ("formula", ["render_formula"]),
}
NAMES = [*LAYERS, "cli.handler"]   # the command handlers in cli.HANDLERS


class Tracer:
    def __init__(self):
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.counters = {"enumerate.scanned": 0, "table.points": 0, "table.triples": 0}

    def wrap(self, layer: str, fn, after=None):
        code = NAMES.index(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.layer.append(code)
            self.parent.append(self.stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self.stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def totals(self) -> dict:
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        layers = {name: {"calls": 0, "self_s": 0.0} for name in NAMES}
        handler_s = 0.0
        for i in range(n):
            entry = layers[NAMES[self.layer[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["self_s"] += dur - covered[i]
            if self.parent[i] < 0 and NAMES[self.layer[i]] == "cli.handler":
                handler_s += dur
        return {"spans": n, "handler_s": handler_s, "layers": layers,
                "counters": self.counters}


def _count_enumerate(counters, args, result):
    theory, k, n = args[:3]
    pool = theories._DIAGRAM_CACHE[(theories.get_theory(theory).id, k * n)]
    counters["enumerate.scanned"] += len(pool)


def _count_table(counters, args, result):
    table = args[0]
    counters["table.points"] += len(table.points)
    counters["table.triples"] += len(table.composition)


AFTER = {"theories.enumerate": _count_enumerate, "groupoid.table": _count_table}


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "tgw" or name.startswith("tgw.")]
    for command, fn in cli.HANDLERS.items():
        cli.HANDLERS[command] = tracer.wrap("cli.handler", fn)
    for layer, (modname, names) in LAYERS.items():
        module = sys.modules["tgw." + modname]
        for name in names if names is not None else _public(module):
            owner, _, attr = name.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, attr, tracer.wrap(layer, vars(cls)[attr], AFTER.get(layer)))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(layer, original, AFTER.get(layer))
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, bound, wrapped)


def main(argv: list[str]) -> int:
    out_path, tgw_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(tgw_args)
    finally:
        totals = tracer.totals()
        totals["cache"] = {
            "diagrams.misses": len(theories._DIAGRAM_CACHE),
            "diagrams.generated": sum(map(len, theories._DIAGRAM_CACHE.values())),
            "qe.misses": len(theories._QE_CACHE),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(totals, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
