"""Command-line entry point: every subcommand runs one verification-style
computation and emits a JSON report with a certificate list, empty for
`dphi`, `skolem` and `model dump`, which check nothing beyond their items.
`COMMANDS` declares the parameters each subcommand reads, with their
defaults; the flags, the checks on a `--config` file and the defaults
applied all come from it, so a flag or key that a command does not read is
a usage error.  Exit codes: 0 all certificates pass, 1 a certificate
failed, 2 usage error, 3 resource cap.  A reader that closes stdout early
gets no more of the report and no traceback, and the exit code stays the
one above.  Reports are deterministic for a fixed configuration up to the
timing field.  A report prints as `json.dumps(report, indent=2,
sort_keys=True)` would print it, written in blocks as it is walked rather
than built as one string; the `--json` file gets the same bytes, written
first, so a path that cannot be written is a usage error.  An error
report, printed in place of the report with exit 1, 2 or 3, keeps its keys
in the order written.  A command-line run (`entry`) flushes its streams and
leaves by `os._exit`, skipping the interpreter's teardown, so no `atexit`
hook runs; `main()` called in-process returns its exit code normally."""
from __future__ import annotations

import os
import sys
import time
# the C encoder that `json` writes strings with; `json` itself is imported
# only where a config file is read or an error report printed
from _json import encode_basestring_ascii

from .categorical import (apply_mstar, schedule_holds, skolem_map,
                          universality_check)
from .errors import ParseError, PreconditionError, ResourceCapError, TgwError
from .formula import free_vars, parse_formula, rename_tapes, render_formula
from .groupoid import (LAWS, LevelTable, Refusal, SubGroupoid, clopen,
                       clopen_equiv, compose_clopen, en_clopen, invert_clopen,
                       is_subgroupoid, merge_tape, project_clopen,
                       source_clopen, target_clopen, theta_fiber,
                       theta_reindex, verify_level_axioms)
from .models import build_dtuple, make_model
from .reconstruction import predicate_corpus, reconstruct_and_compare
from .rich import RichSequence
from .theories import THEORIES, diagram_texts, enumerate_types, get_theory

SCHEMA_VERSION = 1

REQUIRED = object()   # marks a parameter with no default

# per command, the parameters its handler reads, in flag order, each with its
# default; every command also takes --theory and --json
COMMANDS = {
    "types": {"vars": REQUIRED, "tapes": 1, "constraint": "true"},
    "dphi": {"level": REQUIRED},
    "compose": {"phi": REQUIRED, "psi": REQUIRED},
    "source": {"phi": REQUIRED},
    "subgroupoids": {"depth": 1},
    "groupoid verify": {"level": REQUIRED},
    "project": {"phi": REQUIRED, "to": REQUIRED},
    "theta": {"level": REQUIRED, "tapes": 3, "index": 0},
    "reconstruct": {"depth": 1, "budget": 8},
    "section": {"steps": 0},
    "skolem": {"formula": REQUIRED},
    "universality": {"k": 1, "samples": 8, "m0": 1},
    "model dump": {"size": REQUIRED},
}

# the least value of each integer parameter; every other parameter is a formula
LEAST = {"vars": 0, "tapes": 1, "level": 0, "depth": 0, "budget": 1, "steps": 0,
         "samples": 1, "k": 1, "m0": 0, "to": 0, "index": 0, "size": 0}


def _seq(cfg) -> RichSequence:
    return RichSequence(cfg["theory"])


def _parse(cfg, text):
    return parse_formula(text, get_theory(cfg["theory"]).relations)


def _flag(key: str) -> str:
    return "-k" if key == "k" else "--" + key


def _cert(name, passed, **extra):
    out = {"name": name, "passed": bool(passed)}
    out.update(extra)
    return out


def cmd_types(cfg):
    theory = get_theory(cfg["theory"])
    types = enumerate_types(theory, cfg["tapes"], cfg["vars"], _parse(cfg, cfg["constraint"]))
    items = diagram_texts(types)
    return {"count": len(items), "types": items}, [
        _cert("enumeration-deterministic", True, count=len(items))]


def cmd_dphi(cfg):
    lvl = _seq(cfg).dphi_formula(cfg["level"])
    return {"level": cfg["level"], "raw": render_formula(lvl.formula),
            "simplified": render_formula(lvl.simplified)}, []


def cmd_compose(cfg):
    """chi = phi.psi, printed over (x, z).  phi is read over (x, y); psi is
    read over (y, z) when it names only tapes 1 and 2, and over (x, y)
    otherwise."""
    seq = _seq(cfg)
    U = clopen(seq, _parse(cfg, cfg["phi"]), arity=2)
    psi = _parse(cfg, cfg["psi"])
    tapes = {v.tape for v in free_vars(psi)}
    if tapes <= {1, 2}:
        psi = rename_tapes(psi, {1: 0, 2: 1})
    V = clopen(seq, psi, arity=2)
    chi = compose_clopen(U, V)
    level = max(U.level, V.level, 1)
    tab = LevelTable(seq, 2, level)
    pu, pv = tab.points_of(U), tab.points_of(V)
    agrees = tab.points_of(chi) == {c for a, b, c in tab.composition if a in pu and b in pv}
    display = rename_tapes(chi.formula, {1: 2})
    return ({"chi": render_formula(display), "level": chi.level},
            [_cert("level-table-cross-check", agrees)])


def cmd_source(cfg):
    seq = _seq(cfg)
    U = clopen(seq, _parse(cfg, cfg["phi"]), arity=2)
    s = source_clopen(U)
    t = target_clopen(U)
    # a groupoid's target and source units are the diagonals of U.U^-1 and
    # U^-1.U, whose composition projects tapes apart from the projections above
    inv = invert_clopen(U)
    agrees = all(clopen_equiv(unit, clopen(seq, merge_tape(compose_clopen(a, b).formula),
                                           arity=1, level=U.level))
                 for unit, a, b in ((t, U, inv), (s, inv, U)))
    return ({"source": render_formula(s.formula),
             "target": render_formula(t.formula)},
            [_cert("target-is-source-of-inverse", agrees)])


def cmd_subgroupoids(cfg):
    seq = _seq(cfg)
    items = []
    certs = []
    for X in predicate_corpus(seq, cfg["depth"]):
        if X.arity != 2:
            continue
        verdict = is_subgroupoid(X)
        ok = isinstance(verdict, SubGroupoid)
        entry = {"formula": render_formula(X.formula), "subgroupoid": ok}
        if isinstance(verdict, Refusal):
            entry["failed_axiom"] = verdict.axiom
        items.append(entry)
    for n in range(cfg["depth"], -1, -1):
        verdict = is_subgroupoid(en_clopen(seq, n))
        certs.append(_cert(f"level-equality[{n}]",
                           isinstance(verdict, SubGroupoid)))
    return {"candidates": items}, certs


def cmd_groupoid_verify(cfg):
    report = verify_level_axioms(LevelTable(_seq(cfg), 2, cfg["level"]))
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
    tab_hi = LevelTable(seq, 2, U.level)
    tab_lo = LevelTable(seq, 2, cfg["to"])
    expected = {tab_lo.index(tab_hi.points[i].restrict((0, 1), cfg["to"]))
                for i in tab_hi.points_of(U)}
    agrees = tab_lo.points_of(down) == frozenset(expected)
    return ({"projected": render_formula(down.formula), "level": down.level},
            [_cert("point-restriction-cross-check", agrees)])


def cmd_theta(cfg):
    seq = _seq(cfg)
    tab = LevelTable(seq, cfg["tapes"], cfg["level"])
    idx = cfg["index"]
    if idx >= len(tab.points):
        raise PreconditionError(f"table has only {len(tab.points)} points")
    p = tab.points[idx]
    base, pairs = theta_reindex(p)
    fiber = theta_fiber(tab, base, pairs)
    base_text, *pair_texts = diagram_texts([base, *pairs])
    return ({"base": base_text,
             "pairs": pair_texts,
             "fiber_size": len(fiber)},
            [_cert("fiber-contains-point", idx in fiber)])


def cmd_reconstruct(cfg):
    if cfg["depth"] > 1:  # the predicate grammar adds nothing past negations
        raise PreconditionError(f"--depth must be 0 or 1, not {cfg['depth']}")
    report = reconstruct_and_compare(cfg["theory"], depth=cfg["depth"],
                                     budget=cfg["budget"])
    certs = [_cert("carrier-bijection", report["bijection"])]
    for p in report["predicates"]:
        certs.append(_cert(f"transport[{p['formula']}]",
                           p["invariant"] and p["well_defined"] and p["transported"]))
    return report, certs


def cmd_section(cfg):
    seq = _seq(cfg)
    steps = cfg["steps"]
    sched = seq.section.plan(steps)
    M = make_model(cfg["theory"])
    certs = [_cert("schedule-verified", schedule_holds(seq, sched), m=list(sched.m),
                   B=list(sched.b_bounds))]
    items = {"m": list(sched.m), "A": [list(ab) for ab in sched.a_bounds],
             "B": list(sched.b_bounds)}
    if steps:
        M.element(11)   # commits elements 0..11: randomgraph scans reach only committed ones
        a = build_dtuple(M, seq, sched.m[-1] + 1)
        cert = apply_mstar(a, sched, M, seq)
        items["output"] = [M.render_element(e) for e in cert.output_elements]
        certs.append(_cert("reference-type-checks", cert.ok))
        certs.append(_cert("window-property", cert.windows_ok,
                           windows=[list(w) for w in cert.window_checks]))
    return items, certs


def cmd_skolem(cfg):
    return skolem_map(_parse(cfg, cfg["formula"]), _seq(cfg)), []


def cmd_universality(cfg):
    seq = _seq(cfg)
    M = make_model(cfg["theory"])
    report = universality_check(seq, k=cfg["k"], m0=cfg["m0"], M=M,
                                samples=cfg["samples"])
    return report, [_cert("all-samples-constructed",
                          report["successes"] == report["samples"])]


def cmd_model_dump(cfg):
    M = make_model(cfg["theory"])
    return M.dump(cfg["size"]), []


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


def _spelling(key: str) -> str:
    return f"{_flag(key)} {'N' if key in LEAST else 'FORMULA'}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: tgw [-h] [--config FILE] COMMAND [FLAGS]"
    flags = " ".join(f"[{_spelling(key)}]" for key in COMMANDS[command])
    return f"usage: tgw {command} [-h] [--theory THEORY] [--json PATH] {flags}"


def _help(command: str | None = None) -> str:
    """Usage, then one line per flag: every parameter of a command says
    whether it is required or what its default is."""
    rows = [("--theory THEORY", "one of " + ", ".join(sorted(THEORIES))),
            ("--json PATH", "also write the report to this path")]
    if command is None:
        rows.insert(0, ("--config FILE", "JSON file with a base configuration"))
    for name in COMMANDS if command is None else [command]:
        if command is None:
            rows.append(("", name + ":"))
        rows += [(_spelling(key), "required" if default is REQUIRED else f"default {default}")
                 for key, default in COMMANDS[name].items()]
    lines = [_usage(command), ""]
    if command is None:
        lines += [__doc__, ""]
    lines += [f"  {a:<20}  {b}" if a else f"\n{b}" for a, b in rows]
    return "\n".join(lines)


def _usage_error(message: str, command: str | None = None):
    """Refuse the command line as argparse does: usage and message on
    stderr, exit 2."""
    print(_usage(command), file=sys.stderr)
    print(f"tgw: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flag_value(tokens: list[str], i: int, command: str | None):
    """(flag, value, next index) for the flag token at `i`, whose value is
    joined by `=` (`-k` also takes it attached) or is the next token; a
    token that is a flag itself is no value, but a negative number is."""
    token = tokens[i]
    if token.startswith("--"):
        flag, eq, value = token.partition("=")
        if eq:
            return flag, value, i + 1
    else:
        flag, value = token[:2], token[2:].removeprefix("=")
        if value:
            return flag, value, i + 1
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    if nxt is None or (nxt[:1] == "-" and nxt != "-" and not nxt[1:].replace(".", "", 1).isdigit()):
        _usage_error(f"argument {flag}: expected one argument", command)
    return flag, nxt, i + 2


def config_from_args(argv) -> dict:
    """The `--config` file's keys, overridden by the flags given.  The
    command line is `[--config FILE] COMMAND [FLAG VALUE]...`, where a flag
    is `--theory`, `--json` or one of the command's `COMMANDS` parameters
    and a later flag overrides an earlier one; `-h` prints help.  Anything
    else is refused with exit 2, as is a theory that does not exist or an
    integer parameter that is not an integer."""
    tokens = list(argv)
    unread: list[str] = []
    path = None
    i = 0
    while i < len(tokens) and tokens[i].startswith("-"):
        if tokens[i] in ("-h", "--help"):
            print(_help())
            raise SystemExit(0)
        if tokens[i].partition("=")[0] != "--config":
            unread.append(tokens[i])
            i += 1
            continue
        _, path, i = _flag_value(tokens, i, None)
    if i == len(tokens):
        _usage_error("a subcommand is required")
    words = list(dict.fromkeys(c.split()[0] for c in COMMANDS))
    command = tokens[i]
    if command not in words:
        _usage_error("argument command: invalid choice: {!r} (choose from {})".format(
            command, ", ".join(map(repr, words))))
    i += 1
    if command not in COMMANDS:  # a group: its subcommand follows
        group = [c for c in COMMANDS if c.startswith(command + " ")]
        if i < len(tokens) and f"{command} {tokens[i]}" in COMMANDS:
            command = f"{command} {tokens[i]}"
            i += 1
        elif i < len(tokens) and tokens[i] in ("-h", "--help"):
            print("\n\n".join(map(_help, group)))
            raise SystemExit(0)
        else:
            _usage_error(f"usage: tgw {group[0]} ...")
    keys = {_flag(key): key for key in ("theory", "json", *COMMANDS[command])}
    given = {}
    while i < len(tokens):
        token = tokens[i]
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        key = keys.get(token.partition("=")[0] if token.startswith("--") else token[:2])
        if key is None:
            unread.append(token)
            i += 1
            continue
        flag, value, i = _flag_value(tokens, i, command)
        if key == "theory" and value not in THEORIES:
            _usage_error("argument --theory: invalid choice: {!r} (choose from {})".format(
                value, ", ".join(map(repr, sorted(THEORIES)))), command)
        if key in LEAST:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid int value: {value!r}", command)
        given[key] = value
    if unread:
        _usage_error("unrecognized arguments: " + " ".join(unread))
    cfg = {}
    if path:
        import json
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as e:   # not UTF-8, or not JSON
            raise PreconditionError(f"config file {path!r} is not JSON: {e}") from None
        if not isinstance(loaded, dict):
            raise PreconditionError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update(given, command=command)
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = config_from_args(argv)
        report = run(cfg)
        if cfg.get("json"):
            with open(cfg["json"], "w", encoding="utf-8") as fh:
                _write_report(report, fh)
    except ResourceCapError as e:
        return _refuse(3, {"error": str(e), "kind": "resource-cap", "cap": e.cap,
                           "limit": e.limit, "observed": e.observed})
    except (PreconditionError, ParseError, OSError) as e:
        return _refuse(2, {"error": str(e), "kind": "usage"})
    except TgwError as e:
        return _refuse(1, {"error": str(e), "kind": "certificate"})
    _emit(lambda fh: _write_report(report, fh))
    failed = first_failure(report)
    if failed is not None:
        print(f"certificate failed: {failed}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """The command line's entry: run `main()` and leave with its code by
    `os._exit` once both streams are flushed, so the process frees none of
    its caches, modules or formulas on the way out.  A `SystemExit` or an
    exception raised inside `main` takes the normal exit instead."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _refuse(code: int, error: dict) -> int:
    """Print an error report, its keys in the order given, and return `code`."""
    import json
    _emit(lambda fh: print(json.dumps(error, indent=2), file=fh))
    return code


def _emit(write) -> None:
    """Call `write(sys.stdout)` and flush, dropping the output if the reader
    has gone."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


_BLOCK = 4096   # pieces joined into one write to the stream


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# each scalar type's JSON text, as `json` writes it with `ensure_ascii`
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _write_report(report, fh) -> None:
    """Write `json.dumps(report, indent=2, sort_keys=True)` and a newline to
    `fh`, the same text without building it whole: the pieces collected are
    written and dropped once a list element leaves more than `_BLOCK` of
    them.  A dict key that is not a `str` raises `TypeError`, as does a value
    whose exact type is none of dict, list, tuple and the keys of
    `_SCALARS`."""
    pieces: list[str] = []
    put = pieces.append

    def walk(v, nl):
        text = _SCALARS.get(type(v))
        if text is not None:
            put(text(v))
            return
        inner = nl + "  "
        if isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            sep = "[" + inner
            for x in v:
                text = _SCALARS.get(type(x))
                if text is not None:
                    put(sep + text(x))
                else:
                    put(sep)
                    walk(x, inner)
                sep = "," + inner
                if len(pieces) > _BLOCK:
                    fh.write("".join(pieces))
                    pieces.clear()
            put(nl + "]")
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            sep = "{" + inner
            for key in sorted(v):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                put(sep + encode_basestring_ascii(key) + ": ")
                walk(v[key], inner)
                sep = "," + inner
            put(nl + "}")
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not a report value")

    walk(report, "\n")
    put("\n")
    fh.write("".join(pieces))
