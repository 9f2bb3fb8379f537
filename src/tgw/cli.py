"""Command-line entry point: every subcommand runs one verification-style
computation and emits a JSON report with a certificate list.  `COMMANDS`
declares the parameters each subcommand reads, with their defaults; the flags,
the checks on a `--config` file and the defaults applied all come from it, so
a flag or key that a command does not read is a usage error.  Exit codes:
0 all certificates pass, 1 a certificate failed, 2 usage error, 3 resource
cap.  Reports are deterministic for a fixed configuration up to the timing
field."""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from .categorical import (apply_mstar, section_schedule, skolem_map,
                          universality_check)
from .errors import ParseError, PreconditionError, ResourceCapError, TgwError
from .formula import free_vars, parse_formula, rename_tapes, render_formula
from .groupoid import (LAWS, LevelTable, Refusal, SubGroupoid, clopen,
                       compose_clopen, en_clopen, is_subgroupoid,
                       project_clopen, source_clopen, target_clopen,
                       theta_fiber, theta_reindex, verify_level_axioms)
from .models import DEFAULT_QUANTIFIER_CAP, build_dtuple, make_model
from .reconstruction import predicate_corpus, reconstruct_and_compare
from .rich import RichSequence
from .theories import DEFAULT_GRID_CAP, THEORIES, enumerate_types, get_theory

SCHEMA_VERSION = 1

REQUIRED = object()   # marks a parameter with no default

# per command, the parameters its handler reads, in flag order, each with its
# default; every command also takes --theory and --json
COMMANDS = {
    "types": {"vars": REQUIRED, "tapes": 1, "constraint": "true",
              "max_grid": DEFAULT_GRID_CAP},
    "dphi": {"level": REQUIRED},
    "compose": {"phi": REQUIRED, "psi": REQUIRED, "max_grid": DEFAULT_GRID_CAP},
    "source": {"phi": REQUIRED},
    "subgroupoids": {"depth": 1},
    "groupoid verify": {"level": REQUIRED, "max_grid": DEFAULT_GRID_CAP},
    "project": {"phi": REQUIRED, "to": REQUIRED, "max_grid": DEFAULT_GRID_CAP},
    "theta": {"level": REQUIRED, "tapes": 3, "index": 0, "max_grid": DEFAULT_GRID_CAP},
    "reconstruct": {"level": 1, "depth": 1, "budget": 8},
    "section": {"steps": 0, "max_depth": DEFAULT_QUANTIFIER_CAP},
    "skolem": {"formula": REQUIRED},
    "universality": {"k": 1, "samples": 8, "m0": 1, "max_depth": DEFAULT_QUANTIFIER_CAP},
    "model dump": {"size": REQUIRED},
}

# the least value of each integer parameter (a cap of 0 is a cap like any
# other); every other parameter is a formula
LEAST = {"vars": 0, "tapes": 1, "level": 0, "depth": 0, "budget": 1, "steps": 0,
         "samples": 1, "k": 1, "m0": 0, "to": 0, "index": 0, "size": 0,
         "max_grid": 0, "max_depth": 0}


def _seq(cfg) -> RichSequence:
    return RichSequence(cfg["theory"])


def _parse(cfg, text):
    return parse_formula(text, get_theory(cfg["theory"]).signature)


def _flag(key: str) -> str:
    return "-k" if key == "k" else "--" + key.replace("_", "-")


def _model(cfg):
    return make_model(cfg["theory"], max_quantifier_depth=cfg["max_depth"])


def _cert(name, passed, **extra):
    out = {"name": name, "passed": bool(passed)}
    out.update(extra)
    return out


def cmd_types(cfg):
    theory = get_theory(cfg["theory"])
    types = enumerate_types(theory, cfg["tapes"], cfg["vars"],
                            _parse(cfg, cfg["constraint"]), cap=cfg["max_grid"])
    items = [t.diagram_text() for t in types]
    return {"count": len(items), "types": items}, [
        _cert("enumeration-deterministic", True, count=len(items))]


def cmd_dphi(cfg):
    seq = _seq(cfg)
    lvl = seq.dphi_formula(cfg["level"])
    certs = [_cert("levels-monotone", True)]
    return {"level": lvl.n, "raw": render_formula(lvl.formula),
            "simplified": render_formula(lvl.simplified)}, certs


def cmd_compose(cfg):
    seq = _seq(cfg)
    U = clopen(seq, _parse(cfg, cfg["phi"]), arity=2)
    psi = _parse(cfg, cfg["psi"])
    tapes = {v.tape for v in free_vars(psi)}
    if tapes <= {1, 2}:  # the (y,z) spelling of the second factor
        psi = rename_tapes(psi, {1: 0, 2: 1})
    V = clopen(seq, psi, arity=2)
    chi = compose_clopen(U, V)
    level = max(max(U.level, V.level), 1)
    tab = LevelTable(seq, 2, level, cap=cfg["max_grid"])
    comp = tab.compose_sets()
    expected = set()
    for a in tab.points_of(replace(U, level=level)):
        for b in tab.points_of(replace(V, level=level)):
            expected |= comp.get((a, b), set())
    agrees = tab.points_of(replace(chi, level=level)) == frozenset(expected)
    display = rename_tapes(chi.formula, {1: 2})
    return ({"chi": render_formula(display), "level": chi.level},
            [_cert("level-table-cross-check", agrees)])


def cmd_source(cfg):
    seq = _seq(cfg)
    U = clopen(seq, _parse(cfg, cfg["phi"]), arity=2)
    s = source_clopen(U)
    t = target_clopen(U)
    return ({"source": render_formula(s.formula),
             "target": render_formula(t.formula)},
            [_cert("target-is-source-of-inverse", True)])


def cmd_subgroupoids(cfg):
    seq = _seq(cfg)
    items = []
    certs = []
    for X in predicate_corpus(seq, cfg["depth"]):
        if X.arity != 2:
            continue
        verdict = is_subgroupoid(replace(X, level=max(X.level, 1)))
        ok = isinstance(verdict, SubGroupoid)
        entry = {"formula": render_formula(X.formula), "subgroupoid": ok}
        if isinstance(verdict, Refusal):
            entry["failed_axiom"] = verdict.axiom
        items.append(entry)
        certs.append(_cert(f"axioms[{entry['formula']}]", True,
                           subgroupoid=ok))
    for n in range(cfg["depth"], -1, -1):
        verdict = is_subgroupoid(en_clopen(seq, n))
        certs.append(_cert(f"level-equality[{n}]",
                           isinstance(verdict, SubGroupoid)))
    return {"candidates": items}, certs


def cmd_groupoid_verify(cfg):
    report = verify_level_axioms(LevelTable(_seq(cfg), 2, cfg["level"], cap=cfg["max_grid"]))
    certs = [_cert(law, True) if report[law] is True
             else _cert(law, False, detail="{} fails at points ({})".format(
                 law, ",".join(map(str, report[law].witness))))
             for law in LAWS]
    items = {k: v for k, v in report.items() if k not in LAWS}
    return items, certs


def cmd_project(cfg):
    seq = _seq(cfg)
    U = clopen(seq, _parse(cfg, cfg["phi"]), arity=2)
    down = project_clopen(U, cfg["to"])
    tab_hi = LevelTable(seq, 2, U.level, cap=cfg["max_grid"])
    tab_lo = LevelTable(seq, 2, cfg["to"], cap=cfg["max_grid"])
    expected = {tab_lo.index(tab_hi.points[i].restrict((0, 1), cfg["to"]))
                for i in tab_hi.points_of(U)}
    agrees = tab_lo.points_of(down) == frozenset(expected)
    return ({"projected": render_formula(down.formula), "level": down.level},
            [_cert("point-restriction-cross-check", agrees)])


def cmd_theta(cfg):
    seq = _seq(cfg)
    tab = LevelTable(seq, cfg["tapes"], cfg["level"], cap=cfg["max_grid"])
    idx = cfg["index"]
    if idx >= len(tab.points):
        raise PreconditionError(f"table has only {len(tab.points)} points")
    p = tab.points[idx]
    base, pairs = theta_reindex(p)
    fiber = theta_fiber(tab, base, pairs)
    return ({"base": base.diagram_text(),
             "pairs": [g.diagram_text() for g in pairs],
             "fiber_size": len(fiber)},
            [_cert("fiber-contains-point", idx in fiber)])


def cmd_reconstruct(cfg):
    report = reconstruct_and_compare(cfg["theory"], level=cfg["level"],
                                     depth=cfg["depth"], budget=cfg["budget"])
    certs = [_cert("carrier-bijection", report["bijection"])]
    for p in report["predicates"]:
        certs.append(_cert(f"transport[{p['formula']}]",
                           p["invariant"] and p["well_defined"] and p["transported"]))
    return report, certs


def cmd_section(cfg):
    seq = _seq(cfg)
    steps = cfg["steps"]
    sched = section_schedule(seq, steps)
    M = _model(cfg)
    certs = [_cert("schedule-verified", True, m=list(sched.m),
                   B=list(sched.b_bounds))]
    items = {"m": list(sched.m), "A": [list(ab) for ab in sched.a_bounds],
             "B": list(sched.b_bounds)}
    if steps:
        a = build_dtuple(M, seq, sched.m[-1] + 1,
                         cover=[M.element(i) for i in range(12)])
        cert = apply_mstar(a, sched, M, seq)
        items["output"] = [M.render_element(e) for e in cert.output_elements]
        certs.append(_cert("reference-type-checks", cert.ok))
        certs.append(_cert("window-property", True,
                           windows=[list(w) for w in cert.window_checks]))
    return items, certs


def cmd_skolem(cfg):
    seq = _seq(cfg)
    report = skolem_map(_parse(cfg, cfg["formula"]), seq)
    return report, [_cert("skolem-sentence-valid", True, index=report["index"])]


def cmd_universality(cfg):
    seq = _seq(cfg)
    M = _model(cfg)
    report = universality_check(seq, k=cfg["k"], m0=cfg["m0"], M=M,
                                samples=cfg["samples"])
    return report, [_cert("all-samples-constructed",
                          report["successes"] == report["samples"])]


def cmd_model_dump(cfg):
    M = make_model(cfg["theory"])
    return M.dump(cfg["size"]), [_cert("dump-deterministic", True)]


HANDLERS = {
    "types": cmd_types, "dphi": cmd_dphi, "compose": cmd_compose,
    "source": cmd_source, "subgroupoids": cmd_subgroupoids,
    "groupoid verify": cmd_groupoid_verify, "project": cmd_project,
    "theta": cmd_theta, "reconstruct": cmd_reconstruct,
    "section": cmd_section, "skolem": cmd_skolem,
    "universality": cmd_universality, "model dump": cmd_model_dump,
}


def run(config: dict) -> dict:
    """Check one configuration against its command's entry in `COMMANDS`,
    dispatch it with the entry's defaults for absent keys, and assemble the
    report, whose parameters are those given.  Refused as usage errors: a key
    the command does not read, an unknown theory, a missing required key, an
    integer that is not an `int` (a bool is not) or is below its `LEAST`
    value, and a formula or `json` path that is not a string."""
    command = config.get("command")
    if command not in COMMANDS:
        raise PreconditionError(f"unknown command {command!r}")
    table = COMMANDS[command]
    given = {k: v for k, v in config.items() if v is not None}
    unread = set(given) - {"command", "theory", "json", *table}
    if unread:
        raise PreconditionError(f"unknown config fields for {command}: {sorted(unread)}")
    theory = config.get("theory")
    if not isinstance(theory, str) or theory not in THEORIES:
        raise PreconditionError(f"theory must be one of {sorted(THEORIES)}")
    missing = [k for k, v in table.items() if v is REQUIRED and k not in given]
    if missing:
        raise PreconditionError(f"{command} requires {', '.join(map(_flag, missing))}")
    for key in ("json", *table):
        value = given.get(key)
        if value is None:
            continue
        if key in LEAST:
            if type(value) is not int or value < LEAST[key]:
                raise PreconditionError(
                    f"{_flag(key)} must be an integer >= {LEAST[key]}, not {value!r}")
        elif not isinstance(value, str):
            raise PreconditionError(f"{_flag(key)} must be a string, not {value!r}")
    cfg = {**table, **given}
    started = time.monotonic()
    items, certificates = HANDLERS[command](cfg)
    elapsed = round((time.monotonic() - started) * 1000, 3)
    params = {k: v for k, v in sorted(given.items())
              if k not in ("command", "theory", "json")}
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "theory": theory, "parameters": params, "items": items,
            "certificates": certificates, "timing_ms": elapsed}


def first_failure(report: dict):
    for cert in report["certificates"]:
        if not cert["passed"]:
            return cert["name"]
    return None


def build_parser() -> argparse.ArgumentParser:
    """One subparser per entry of `COMMANDS`, with a flag per parameter; a
    two-word command is a subcommand of its first word."""
    top = argparse.ArgumentParser(prog="tgw", description=__doc__)
    top.add_argument("--config", help="JSON file with a base configuration")
    parsers = {"": top.add_subparsers(dest="command")}
    for command, table in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in parsers:
            parsers[group] = parsers[""].add_parser(group).add_subparsers()
        p = parsers[group].add_parser(name)
        p.set_defaults(command=command)
        p.add_argument("--theory", choices=sorted(THEORIES))
        p.add_argument("--json", help="also write the report to this path")
        for key, default in table.items():
            p.add_argument(_flag(key), dest=key, type=int if key in LEAST else str,
                           help="required" if default is REQUIRED else f"default {default}")
    return top


def config_from_args(argv) -> dict:
    """The `--config` file's keys, overridden by the flags given."""
    parser = build_parser()
    ns = vars(parser.parse_args(argv))
    command = ns.pop("command")
    if command is None:
        parser.error("a subcommand is required")
    if command not in COMMANDS:  # a group named without its subcommand
        parser.error("usage: tgw {} ...".format(
            next(c for c in COMMANDS if c.startswith(command + " "))))
    cfg = {}
    path = ns.pop("config")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise PreconditionError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update({k: v for k, v in ns.items() if v is not None}, command=command)
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = config_from_args(argv)
        report = run(cfg)
    except ResourceCapError as e:
        out = {"error": str(e), "kind": "resource-cap"}
        out.update((k, getattr(e, k)) for k in ("cap", "limit", "observed")
                   if getattr(e, k) is not None)
        print(json.dumps(out, indent=2))
        return 3
    except (PreconditionError, ParseError, json.JSONDecodeError, OSError) as e:
        print(json.dumps({"error": str(e), "kind": "usage"}, indent=2))
        return 2
    except TgwError as e:
        print(json.dumps({"error": str(e), "kind": "certificate"}, indent=2))
        return 1
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg.get("json"):
        with open(cfg["json"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    failed = first_failure(report)
    if failed is not None:
        print(f"certificate failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
