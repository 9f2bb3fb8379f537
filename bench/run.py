"""End-to-end benchmark of the `tgw` CLI: fixed workloads of CLI ops, each op
run in a fresh `python -m tgw` process, one at a time (a closed loop with one
client).  Fresh processes matter because the module-level caches
(`_QE_CACHE`, `_DIAGRAM_CACHE`, `_STREAMS`) would make warm timings
meaningless.

usage: python3 bench/run.py --workload {levels,clopen,witness,all}
                            [--seed N] [--seconds S] [--trace 0|1]

A run repeats passes over the workload's ops, each pass in an order drawn from
the seed, and stops at the end of the pass nearest to `--seconds` (always at
least one pass); it reports the median over passes.  Before each op the
script times a fixed reference task (`reference`), which does not use tgw,
and the gated times `wall_ref` and `cpu_ref` are each op's time divided by
the reference time measured around it: a shared virtual machine can change
speed by up to a factor of two over minutes, and the ratio cancels that while
a change to tgw moves it as much as it moves the raw time.  The raw seconds
are printed too.  `--trace 1` runs each op of a pass untraced
and traced (see traced.py) back to back and reports per-layer metrics and
the tracing overhead.  `--workload all` runs every workload untraced with the
seed and traced with the next seed, prints both tables side by side and
checks that the two seeds gave identical results.  The last line of output
is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ops import WORKLOADS, Op, extract

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 60
# gated end-to-end metrics (the --trace 0 result line) -> unit
E2E = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# printed next to them, not gated: the raw times and the reference time
RAW = {"wall_s": "s", "cpu_s": "s", "ref_s": "s"}
REF_BYTES = 64 << 20


def reference() -> float:
    """Wall time of a fixed task that does not use tgw: allocate a fresh
    64 MiB buffer and write one byte in each 4 KiB page, so the kernel faults
    in and zeroes every page.  About 40-80 ms; it reads the host's current
    speed (README.md, "Noise on a shared host")."""
    start = time.perf_counter()
    buf = bytearray(REF_BYTES)
    for i in range(0, REF_BYTES, 4096):
        buf[i] = 1
    del buf
    return time.perf_counter() - start


@dataclass
class Outcome:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    setup_s: float | None   # process wall minus the report's timing_ms
    digest: str
    fields: dict
    failure: str | None     # why the op counts as failed
    wrong: bool             # a wrong result, not only an error
    trace: dict | None
    ref_s: float            # reference task timed right before the op
    host_s: float = 0.0     # mean reference time before and after the op


class Spawner:
    """Client of spawn.py, the small process that starts every op."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        # The caller's PYTHON* settings (say PYTHONDONTWRITEBYTECODE) would
        # change what start-up costs, so ops run without them.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def run(self, argv: list[str]) -> tuple[dict, bytes]:
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        req = {"argv": argv, "env": self.env, "stdout": str(out),
               "stderr": str(err), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn.py exited")
        return json.loads(reply), out.read_bytes()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S + 10)   # its current op is killed by then


def digest(report: dict) -> str:
    rest = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()[:12]


def run_op(spawner: Spawner, op: Op, traced: bool) -> Outcome:
    trace_path = spawner.workdir / "trace.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path), *op.argv]
    else:
        argv = [sys.executable, "-m", "tgw", *op.argv]
    ref_s = reference()
    cost, stdout = spawner.run(argv)
    failure, wrong, fields, setup = None, False, {}, None
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {"unparsed": stdout.decode(errors="replace")}
    if cost["timed_out"]:
        failure, wrong = f"timed out after {OP_TIMEOUT_S} s", True
    elif "items" in report:
        setup = cost["wall_s"] - report["timing_ms"] / 1000
        bad = [c["name"] for c in report["certificates"] if not c["passed"]]
        fields = {path: extract(report["items"], path) for path in op.expect}
        wrong_fields = [p for p, v in fields.items() if v != op.expect[p]]
        if bad:
            failure, wrong = f"certificate failed: {bad[0]}", True
        elif wrong_fields:
            p = wrong_fields[0]
            failure, wrong = f"{p} = {fields[p]!r}, recorded {op.expect[p]!r}", True
        elif cost["exit"] != 0:
            failure, wrong = f"exit {cost['exit']}", True
    elif cost["exit"] != 0:
        failure = f"exit {cost['exit']}: {report.get('error', '')}"
        # Only the recorded defect, with its exit code and message, is an
        # expected failure; any other error is a wrong result.
        wrong = (cost["exit"], report.get("error")) != op.fails
    else:
        failure, wrong = "no report", True
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return Outcome(op, cost["wall_s"], cost["cpu_s"], cost["rss_mb"], cost["exit"],
                   setup, digest(report), fields, failure, wrong, trace, ref_s)


def e2e_of(outcomes: list[Outcome]) -> dict:
    return {"wall_ref": sum(o.wall_s / o.host_s for o in outcomes),
            "cpu_ref": sum(o.cpu_s / o.host_s for o in outcomes),
            "wall_s": sum(o.wall_s for o in outcomes),
            "cpu_s": sum(o.cpu_s for o in outcomes),
            "setup_s": sum(o.setup_s for o in outcomes if o.setup_s is not None),
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
            "ref_s": statistics.median(o.host_s for o in outcomes)}


# per-layer metric -> unit; self_s of each layer comes from the spans
PER_LAYER = {
    "theories.diagrams.calls": "count", "theories.diagrams.self_s": "s",
    "theories.diagrams.generated": "count", "theories.diagrams.hit_ratio": "ratio",
    "theories.enumerate.self_s": "s", "theories.enumerate.scanned": "count",
    "theories.restrict.calls": "count", "theories.restrict.self_s": "s",
    "theories.qe.calls": "count", "theories.qe.self_s": "s",
    "theories.qe.hit_ratio": "ratio", "theories.canonical.self_s": "s",
    "theories.diagram_formula.self_s": "s",
    "groupoid.table.self_s": "s", "groupoid.table.points": "count",
    "groupoid.table.triples": "count", "groupoid.axioms.self_s": "s",
    "groupoid.clopen.self_s": "s",
    "rich.relativize.calls": "count", "rich.relativize.self_s": "s",
    "rich.dphi.self_s": "s", "rich.stream.self_s": "s",
    "models.evaluate.calls": "count", "models.evaluate.self_s": "s",
    "models.dtuple.calls": "count", "models.dtuple.self_s": "s",
    "models.tuple_type.self_s": "s",
    "reconstruction.self_s": "s", "categorical.self_s": "s",
    "formula.conj.self_s": "s", "formula.render.self_s": "s",
    "cli.handler.self_s": "s", "handler_s": "s", "trace.overhead_s": "s",
}


def layers_of(outcomes: list[Outcome]) -> dict:
    """Per-layer metrics of one traced pass, summed over its ops."""
    traces = [o.trace for o in outcomes if o.trace is not None]

    def total(get):
        return sum(get(t) for t in traces)

    out = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and layer:
            out[name] = total(lambda t: t["layers"][layer][kind])
    out["handler_s"] = total(lambda t: t["handler_s"])
    out["theories.diagrams.generated"] = total(lambda t: t["cache"]["diagrams.generated"])
    out["theories.diagrams.hit_ratio"] = ratio(
        out["theories.diagrams.calls"] - total(lambda t: t["cache"]["diagrams.misses"]),
        out["theories.diagrams.calls"])
    out["theories.qe.hit_ratio"] = ratio(
        out["theories.qe.calls"] - total(lambda t: t["cache"]["qe.misses"]),
        out["theories.qe.calls"])
    out["theories.enumerate.scanned"] = total(lambda t: t["counters"]["enumerate.scanned"])
    out["groupoid.table.points"] = total(lambda t: t["counters"]["table.points"])
    out["groupoid.table.triples"] = total(lambda t: t["counters"]["table.triples"])
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Run:
    workload: str
    seed: int
    passes: list[list[Outcome]]            # untraced passes
    traced: list[list[Outcome]]

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for p in self.passes + self.traced for o in p]

    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes)

    def problems(self) -> list[str]:
        """Wrong results, and ops whose report changed between passes."""
        out = [f"{o.op.text}: {o.failure}" for o in self.outcomes if o.wrong]
        seen: dict[str, str] = {}
        for o in self.outcomes:
            if seen.setdefault(o.op.text, o.digest) != o.digest:
                out.append(f"{o.op.text}: report differs between passes")
        return sorted(set(out))

    def e2e(self) -> dict:
        return {k: quartiles([e2e_of(p)[k] for p in self.passes]) for k in {**E2E, **RAW}}

    def layers(self) -> dict:
        per_pass = [layers_of(p) for p in self.traced]
        for metrics, traced, plain in zip(per_pass, self.traced, self.passes):
            # the same ops, each run traced and untraced back to back
            metrics["trace.overhead_s"] = (e2e_of(traced)["wall_s"]
                                           - e2e_of(plain)["wall_s"])
        return {k: quartiles([m[k] for m in per_pass]) for k in PER_LAYER}


def run_workload(spawner: Spawner, name: str, seed: int, seconds: float,
                 trace: bool) -> Run:
    ops = WORKLOADS[name]
    rng = random.Random(seed)
    run = Run(name, seed, [], [])
    timeline: list[Outcome] = []    # every execution, in the order run

    def one_pass() -> None:
        order = list(ops)
        rng.shuffle(order)
        plain, traced = [], []
        for op in order:
            # A traced pass runs each op untraced and traced back to back, in
            # random order, so the tracing overhead is measured op by op.
            kinds = [False, True] if trace else [False]
            rng.shuffle(kinds)
            for kind in kinds:
                timeline.append(run_op(spawner, op, kind))
                (traced if kind else plain).append(timeline[-1])
        run.passes.append(plain)
        if trace:
            run.traced.append(traced)

    spawner.run([sys.executable, "-m", "tgw", "--help"])   # writes byte code
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        # Stop at the pass boundary nearest to `seconds`, assuming the next
        # pass lasts as long as this one.
        if now - start + (now - began) / 2 > seconds:
            break
    # the reference before the next op is the one after this op
    refs = [o.ref_s for o in timeline] + [reference()]
    for i, o in enumerate(timeline):
        o.host_s = (refs[i] + refs[i + 1]) / 2
    return run


def print_ops(run: Run) -> None:
    print(f"\n== {run.workload} (seed {run.seed}): {len(run.passes)} untraced, "
          f"{len(run.traced)} traced passes; medians over passes")
    print(f"{'op':<66} {'wall s':>7} {'wall ref':>8} {'cpu s':>7} {'rss MB':>7} {'exit':>4}"
          "  digest   (rss: largest)")
    for op in WORKLOADS[run.workload]:
        mine = [o for p in run.passes + run.traced for o in p if o.op is op]
        plain = [o for p in run.passes for o in p if o.op is op]
        print(f"{op.text[:66]:<66} {statistics.median(o.wall_s for o in plain):7.3f} "
              f"{statistics.median(o.wall_s / o.host_s for o in plain):8.2f} "
              f"{statistics.median(o.cpu_s for o in plain):7.3f} "
              f"{max(o.rss_mb for o in plain):7.1f} {mine[0].exit:>4}  {mine[0].digest}"
              + "".join(sorted({f"  FAILED: {o.failure}" for o in mine if o.failure})))


def summary_rows(run: Run) -> list[str]:
    rows = []
    if not run.traced:
        for k, (q1, med, q3) in run.e2e().items():
            unit = {**E2E, **RAW}[k]
            rows.append(f"{k:<34} {med:10.4f} {unit:<5} [{q1:.4f}, {q3:.4f}] "
                        f"n={len(run.passes)}")
    attempted = len(run.outcomes)
    rows.append(f"{'fail_ratio':<34} {run.failed() / attempted:10.4f} ratio "
                f"({run.failed()}/{attempted} ops)")
    return rows


def layer_rows(run: Run) -> list[str]:
    if not run.traced:
        return []
    layers = run.layers()
    handler = layers["handler_s"][1]
    rows = []
    for k, (q1, med, q3) in layers.items():
        share = f"{med / handler:6.1%} of handler" if k.endswith("self_s") and handler else ""
        rows.append(f"{k:<34} {med:12.4f} {PER_LAYER[k]:<5} {share}")
    return rows


def result_line(run: Run, trace: bool) -> dict:
    stats = run.layers() if trace else run.e2e()
    units = PER_LAYER if trace else E2E
    return {"correct": not run.problems(), "attempted": len(run.outcomes),
            "failed": run.failed(),
            "metrics": {k: {"value": stats[k][1], "unit": units[k]} for k in units}}


def compare_seeds(a: Run, b: Run) -> list[str]:
    first = {o.op.text: (o.fields, o.digest) for o in a.outcomes}
    return [f"{o.op.text}: seed {a.seed} and seed {b.seed} disagree"
            for o in b.outcomes if first[o.op.text] != (o.fields, o.digest)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tgw" / "cli.py").is_file():
        print(f"no tgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    spawner = Spawner(workdir)
    try:
        if args.workload == "all":
            return run_all(spawner, args.seed, args.seconds)
        run = run_workload(spawner, args.workload, args.seed, args.seconds,
                           bool(args.trace))
        print_ops(run)
        for row in summary_rows(run) + layer_rows(run) + run.problems():
            print(row)
        print(json.dumps(result_line(run, bool(args.trace))))
        return 0
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(spawner: Spawner, seed: int, seconds: float) -> int:
    summary = {}
    problems = []
    for name in WORKLOADS:
        plain = run_workload(spawner, name, seed, seconds, trace=False)
        traced = run_workload(spawner, name, seed + 1, seconds, trace=True)
        print_ops(plain)
        left, right = summary_rows(plain), layer_rows(traced)
        print(f"\n-- {name}: end to end (untraced, seed {seed}) | per layer "
              f"(traced, seed {seed + 1})")
        for i in range(max(len(left), len(right))):
            l = left[i] if i < len(left) else ""
            print(f"{l:<82}| {right[i] if i < len(right) else ''}")
        problems += plain.problems() + traced.problems() + compare_seeds(plain, traced)
        summary[name] = {
            "e2e": {k: {"q1": q1, "median": med, "q3": q3, "passes": len(plain.passes)}
                    for k, (q1, med, q3) in plain.e2e().items()},
            "fail_ratio": [plain.failed(), len(plain.outcomes)],
            "layers": {k: v[1] for k, v in traced.layers().items()},
            "ops": {o.op.text: {"wall_s": o.wall_s, "exit": o.exit, "digest": o.digest}
                    for o in plain.passes[0]},
        }
    for p in problems:
        print(p)
    print(json.dumps({"correct": not problems, "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
