"""The benchmark's workloads: fixed lists of `tgw` CLI ops, each with the
result fields it must reproduce.

A field path is dot-separated: `*` maps the rest of the path over a list and
`#` takes a length.  Only results that a re-rendering of formulas cannot
change are pinned (counts, verdicts, bounds, indices); rendered formulas are
left to the report digest, which is printed but not checked.

An op with `fails` set is a known defect: it must stop with exactly that
exit code and error message.  It then counts as failed but not wrong; any
other failure is a wrong result.  Once the defect is fixed and the op
succeeds, it counts as passed.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    text: str                      # split on spaces: formulas hold none
    expect: dict = field(default_factory=dict)
    fails: tuple[int, str] | None = None   # known defect: (exit code, error)

    @property
    def argv(self) -> list[str]:
        return self.text.split()


def extract(items, path: str):
    values, many = [items], False
    for part in path.split("."):
        if part == "*":
            values, many = [x for v in values for x in v], True
        elif part == "#":
            values = [len(v) for v in values]
        else:
            values = [v.get(part) for v in values]
    return values if many else values[0]


def _level_table(points, base, triples):
    return {"points": points, "base-points": base, "composition-triples": triples}


_SELF_SLOT = (1, "section step 3 depends on its own slot")


WORKLOADS: dict[str, list[Op]] = {
    # Full diagram pools, level tables and the 4-tape axiom check; QE does
    # almost nothing.  `groupoid verify --level 2` on dlo (~51 s, 1.5 GB) and
    # on randomgraph (>120 s) is left out for run length.
    "levels": [
        Op("groupoid verify --theory equivinf --level 2", _level_table(60, 3, 2471)),
        Op("groupoid verify --theory pureset --level 2", _level_table(15, 2, 203)),
        Op("groupoid verify --theory dlo --level 1", _level_table(3, 1, 13)),
        Op("groupoid verify --theory randomgraph --level 1", _level_table(3, 1, 15)),
        Op("types --theory equivinf --vars 7", {"count": 19302, "types.#": 19302}),
        Op("types --theory dlo --vars 6", {"count": 4683, "types.#": 4683}),
        # a constraint that keeps 101 of the 541 diagrams it scans
        Op("types --theory dlo --vars 5 --constraint (lt(x0,x1)&lt(x2,x3))",
           {"count": 101, "types.#": 101}),
        Op("compose --theory dlo --phi (lt(x0,y0)&lt(x1,y1)) "
           "--psi (lt(y0,z0)&lt(y1,z1))", {"level": 2}),
        Op("project --theory dlo --phi (lt(x0,y0)&lt(x1,y1)) --to 1", {"level": 1}),
        Op("theta --theory equivinf --level 2 --index 7",
           {"fiber_size": 1, "pairs.#": 2}),
        # Small ops that call the model, reconstruction and categorical
        # layers, so that every layer is measured on every workload.
        Op("reconstruct --theory pureset --budget 8",
           {"bijection": True, "classes": 8, "sorts": 1,
            "predicates.*.transported": [True] * 4}),
        Op("section --theory pureset --steps 2",
           {"m": [3, 9], "A": [[0, 1], [1, 4]], "B": [0, 1, 4]}),
    ],
    # Syntactic QE over many distinct formulas, which mostly miss the QE
    # cache; diagram pools stay small.
    "clopen": [
        Op("dphi --theory dlo --level 20", {"level": 20}),
        Op("dphi --theory randomgraph --level 20", {"level": 20}),
        Op("dphi --theory equivinf --level 24", {"level": 24}),
        Op("dphi --theory pureset --level 24", {"level": 24}),
        Op("subgroupoids --theory dlo --depth 1", {
            "candidates.*.subgroupoid": [True, False, False, False, False, False],
            "candidates.*.failed_axiom": [None, "symmetric", "symmetric",
                                          "contains-base", "symmetric", "symmetric"]}),
        Op("subgroupoids --theory equivinf --depth 1", {
            "candidates.*.subgroupoid": [True, True, False, False],
            "candidates.*.failed_axiom": [None, None, "contains-base", "contains-base"]}),
        Op("subgroupoids --theory randomgraph --depth 1", {
            "candidates.*.subgroupoid": [True, False, False, False],
            "candidates.*.failed_axiom": [None, "contains-base", "contains-base",
                                          "multiplicatively-closed"]}),
        Op("source --theory equivinf --phi (equiv(x0,y0)&!eq(x0,y0))"),
        Op("compose --theory equivinf --phi equiv(x0,y0) --psi equiv(y0,z0)",
           {"level": 1}),
        Op("skolem --theory dlo --formula lt(x0,y0)", {"index": 9}),
        Op("skolem --theory randomgraph --formula adj(x0,y0)", {"index": 9}),
        # small: calls the axiom check, so every layer is measured here
        Op("groupoid verify --theory pureset --level 1", _level_table(2, 1, 5)),
    ],
    # Model evaluation and witness tuples: many small cached diagram pools and
    # a few repeated QE formulas, where `levels` and `clopen` use the same
    # layers cold.  The two `--steps 4` ops fail at the baseline commit with
    # the section-schedule defect and are counted as failures, not skipped;
    # their result fields are pinned once they pass.
    "witness": [
        Op("universality --theory equivinf -k 3 --samples 32",
           {"indices": [7, 20, 28], "samples": 32, "successes": 32}),
        Op("universality --theory randomgraph -k 2 --samples 32",
           {"indices": [7, 20], "samples": 32, "successes": 32}),
        Op("universality --theory dlo -k 2 --samples 32",
           {"indices": [7, 20], "samples": 32, "successes": 32}),
        Op("reconstruct --theory dlo --budget 32",
           {"bijection": True, "classes": 32, "sorts": 1,
            "predicates.*.transported": [True] * 8}),
        Op("reconstruct --theory randomgraph --budget 32",
           {"bijection": True, "classes": 32, "sorts": 1,
            "predicates.*.transported": [True] * 6}),
        Op("section --theory equivinf --steps 6",
           {"m": [3, 9, 15, 21, 27, 33], "B": [0, 1, 4, 16],
            "A": [[0, 1], [1, 4], [2, 10], [3, 16], [4, 16], [5, 32]]}),
        Op("section --theory pureset --steps 6",
           {"m": [3, 9, 15, 21, 27, 33], "B": [0, 1, 4, 16],
            "A": [[0, 1], [1, 4], [2, 10], [3, 16], [4, 16], [5, 28]]}),
        Op("section --theory dlo --steps 3",
           {"m": [3, 9, 15], "A": [[0, 1], [1, 4], [2, 15]], "B": [0, 1, 4]}),
        Op("section --theory randomgraph --steps 3",
           {"m": [3, 9, 15], "A": [[0, 1], [1, 4], [2, 15]], "B": [0, 1, 4]}),
        Op("section --theory dlo --steps 4", fails=_SELF_SLOT),
        Op("section --theory randomgraph --steps 4", fails=_SELF_SLOT),
        Op("model dump --theory dlo --size 200", {"carrier.#": 200, "atoms.lt.#": 19900}),
        Op("groupoid verify --theory pureset --level 1", _level_table(2, 1, 5)),
    ],
}
