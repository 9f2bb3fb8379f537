import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgw
from tgw import categorical, cli, groupoid, models, rich, theories
from tgw.cli import COMMANDS, HANDLERS, config_from_args, first_failure, main, run
from tgw.formula import TRUE, Exists, Forall, parse_formula
from tgw.groupoid import LevelTable


DLO = theories.get_theory("dlo").relations


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_types_example(capsys):
    code, rep = capture(capsys, ["types", "--theory", "dlo", "--vars", "2"])
    assert code == 0
    assert rep["items"]["count"] == 3
    assert rep["schema_version"] == 1


def test_groupoid_verify_all_pass(capsys):
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", "pureset",
                                 "--level", "1"])
    assert code == 0
    assert all(c["passed"] for c in rep["certificates"])


def test_compose_example(capsys):
    code, rep = capture(capsys, ["compose", "--theory", "pureset",
                                 "--phi", "eq(x0,y0)", "--psi", "eq(y0,z1)"])
    assert code == 0
    assert rep["items"]["chi"] == "eq(x0,z1)"
    assert rep["certificates"][0]["name"] == "level-table-cross-check"


@pytest.mark.parametrize("theory, rel", [("equivinf", "equiv"), ("dlo", "lt")])
def test_compose_keeps_psi_binder_apart_from_the_moved_tapes(capsys, theory, rel):
    # psi is spelled over (y, z) and moved onto (x, y); its binder x0 must not
    # capture the moved y0, so chi does not depend on the binder's name
    chis = []
    for bound in ("x0", "w0"):
        psi = f"exists {bound}. ({rel}(y0,{bound}) & {rel}({bound},z0))"
        code, rep = capture(capsys, ["compose", "--theory", theory,
                                     "--phi", f"{rel}(x0,y0)", "--psi", psi])
        assert code == 0
        chis.append(rep["items"]["chi"])
    assert chis == [f"{rel}(x0,z0)"] * 2


def test_determinism_minus_timing(capsys):
    argv = ["reconstruct", "--theory", "dlo", "--depth", "1", "--budget", "4"]
    _, a = capture(capsys, argv)
    _, b = capture(capsys, argv)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_source_certificate_is_computed(capsys, monkeypatch):
    # the target is the source of the inverse; it is not the source itself,
    # so a certificate judged against the source would fail
    argv = ["source", "--theory", "dlo", "--phi", "(lt(x0,x1)&eq(x1,y0))"]
    code, rep = capture(capsys, argv)
    assert code == 0
    assert rep["items"] == {"source": "true", "target": "lt(x0,x1)"}
    assert rep["certificates"] == [{"name": "target-is-source-of-inverse", "passed": True}]
    monkeypatch.setattr(cli, "target_clopen", groupoid.source_clopen)
    code, rep = capture(capsys, argv)
    assert code == 1
    assert rep["certificates"] == [{"name": "target-is-source-of-inverse", "passed": False}]
    # a projection that forgets its body, used for the source and inside the
    # target alike, keeps the target the source of the inverse; the diagonal
    # of U.U^-1, whose middle tape the composition projects out, tells
    monkeypatch.undo()

    def forget(U):
        return groupoid.ClopenSet(U.seq, 1, TRUE, U.level)

    monkeypatch.setattr(groupoid, "source_clopen", forget)
    monkeypatch.setattr(cli, "source_clopen", forget)
    U = groupoid.clopen(rich.RichSequence("dlo"), parse_formula(argv[-1], DLO), arity=2)
    assert groupoid.clopen_equiv(groupoid.target_clopen(U),
                                 cli.source_clopen(groupoid.invert_clopen(U)))
    code, rep = capture(capsys, argv)
    assert code == 1
    assert rep["items"] == {"source": "true", "target": "true"}
    assert rep["certificates"] == [{"name": "target-is-source-of-inverse", "passed": False}]


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["types", "--theory", "nosuch", "--vars", "2"])
    assert exc.value.code == 2
    assert main(["skolem", "--theory", "dlo", "--formula", "lt(x0"]) == 2


def test_resource_cap_exit_code():
    assert main(["types", "--theory", "randomgraph", "--vars", "9",
                 "--tapes", "2"]) == 3


@pytest.mark.parametrize("argv,observed", [
    ("types --theory dlo --vars 13", 13),
    # a level-5 table composes over 15-variable amalgams
    ("groupoid verify --theory randomgraph --level 5", 15),
    ("theta --theory pureset --level 5", 15),
    ("compose --theory pureset --phi eq(x4,y4) --psi eq(y4,z4)", 15),
    # `RichSequence.valid` searches the closure of x7's position, 13 variables
    ("skolem --theory pureset --formula !eq(x7,y0)", 13),
])
def test_grid_cap_fields(capsys, argv, observed):
    code, rep = capture(capsys, argv.split())
    assert code == 3 and rep["kind"] == "resource-cap"
    assert rep["error"] == f"grid of {observed} variables exceeds the enumeration cap 12"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("max-grid", 12, observed)


def test_verify_cap_counts_composition_amalgams(capsys, monkeypatch):
    # level 3 composes over 9-variable amalgams: refused before any enumeration
    monkeypatch.setattr(theories, "GRID_CAP", 8)
    start = time.perf_counter()
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", "randomgraph",
                                 "--level", "3"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert "grid of 9 variables" in rep["error"]
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("max-grid", 8, 9)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("theory,points", [("equivinf", 2471), ("dlo", 4683)])
def test_verify_level_three_refused_on_points(capsys, theory, points):
    # the join cap is checked on the points, before the composition is built
    start = time.perf_counter()
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", theory,
                                 "--level", "3"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert f"{points}**3" in rep["error"] and "10000000" in rep["error"]
    assert (rep["cap"], rep["limit"], rep["observed"]) == (
        "assoc-triples", 10_000_000, points ** 3)
    assert time.perf_counter() - start < 5


def test_assoc_triples_cap_fields(capsys, monkeypatch):
    # pureset level 1 has 2 points, so its join ranges over 8 triples
    monkeypatch.setattr(groupoid, "ASSOC_TRIPLE_CAP", 7)
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", "pureset",
                                 "--level", "1"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("assoc-triples", 7, 8)


@pytest.mark.parametrize("theory,level,drop,verdicts", [
    # the relation left still cancels through inverses
    ("pureset", 2, (3, 3, 3), {"associativity": "associativity fails at points (1,9,3)"}),
    ("dlo", 1, (1, 2, 0), {"associativity": "associativity fails at points (1,2,1)",
                           "inversion": "inversion fails at points (1)"}),
])
def test_groupoid_verify_reports_each_law(capsys, monkeypatch, theory, level,
                                          drop, verdicts):
    compose = LevelTable._compose
    monkeypatch.setattr(LevelTable, "_compose",
                        lambda self: (t for t in compose(self) if t != drop))
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", theory,
                                 "--level", str(level)])
    assert code == 1
    certs = {c["name"]: c for c in rep["certificates"]}
    assert list(certs) == ["associativity", "neutrality", "inversion", "openness"]
    for name, cert in certs.items():
        assert cert["passed"] == (name not in verdicts)
        assert cert.get("detail") == verdicts.get(name)


def test_dnf_cube_cap_fields(capsys, monkeypatch):
    # the cap is checked as each cube is kept, so it stops one cube past it
    monkeypatch.setattr(theories, "_QE_CACHE", {})
    monkeypatch.setattr(theories, "DNF_CUBE_CAP", 4)
    code, rep = capture(capsys, ["dphi", "--theory", "dlo", "--level", "20"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("dnf-cubes", 4, 5)


def test_canonical_rank_cap_fields(capsys, monkeypatch):
    monkeypatch.setattr(rich, "CANONICAL_RANK_CAP", 1)
    code, rep = capture(capsys, ["universality", "--theory", "dlo", "--m0", "20"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("canonical-rank", 1, 2)


def test_canonical_weight_cap_fields(capsys, monkeypatch):
    # below weight 2 the stream holds only false and true
    monkeypatch.setattr(rich, "_STREAMS", {})
    monkeypatch.setattr(rich, "CANONICAL_WEIGHT_CAP", 1)
    code, rep = capture(capsys, ["universality", "--theory", "dlo", "--m0", "20"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("canonical-weight", 1, 2)


def test_skolem_scan_cap_fields(capsys, monkeypatch):
    monkeypatch.setattr(categorical, "SKOLEM_SCAN_CAP", 0)
    code, rep = capture(capsys, ["skolem", "--theory", "dlo", "--formula", "lt(x0,y0)"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("skolem-scan", 0, 0)


@pytest.mark.slow
def test_skolem_scan_reaches_the_grid_cap_in_time():
    # each scanned index is one counter-example search; the scan stops at
    # the first index whose search grid has more than `GRID_CAP` variables
    src = str(Path(tgw.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tgw", "skolem", "--theory", "equivinf",
                           "--formula", "(equiv(x0,y0)&!eq(x1,y0))"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(proc.stdout)
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("max-grid", 12, 13)


def test_section_scan_cap_fields(capsys, monkeypatch):
    # pureset realises the last 1-type over its first entry at position 3,
    # past a scan of positions 1 and 2
    monkeypatch.setattr(rich, "SECTION_SCAN_CAP", 3)
    code, rep = capture(capsys, ["section", "--theory", "pureset", "--steps", "2"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("section-scan", 3, 2)


def test_section_scan_that_cannot_fit_is_refused_before_it_runs(capsys, monkeypatch):
    # over its first two entries the random graph has six 1-types, which
    # positions 2..5 cannot all realise
    monkeypatch.setattr(rich, "SECTION_SCAN_CAP", 6)
    code, rep = capture(capsys, ["section", "--theory", "randomgraph", "--steps", "3"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("section-scan", 6, 8)


def test_witness_scan_cap_fields(capsys, monkeypatch):
    monkeypatch.setattr(models, "WITNESS_SCAN_CAP", 0)
    code, rep = capture(capsys, ["universality", "--theory", "dlo", "--samples", "1"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("witness-scan", 0, 0)


def test_true_slot_scan_cap_fields(capsys, monkeypatch):
    monkeypatch.setattr(categorical, "TRUE_SLOT_SCAN_CAP", 0)
    code, rep = capture(capsys, ["universality", "--theory", "dlo"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("true-slot-scan", 0, 1)


def test_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["dphi", "--theory", "pureset", "--level", "1",
                 "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    saved = json.loads(path.read_text())
    assert saved["command"] == "dphi"
    assert saved["items"]["raw"] == "forall y0. (true -> true)"
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_json_path_is_a_usage_error(tmp_path, target):
    # the file is written before the report is printed, so a path that cannot
    # be written leaves only the usage error report on stdout
    src = str(Path(tgw.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tgw", "types", "--theory", "dlo", "--vars", "1",
                           "--json", str(tmp_path / target)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "usage"
    assert "Traceback" not in proc.stderr


def test_config_file_with_overrides(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"command": "types", "theory": "dlo",
                                   "vars": 2}))
    cfg = config_from_args(["--config", str(cfgfile), "types", "--vars", "3"])
    assert cfg["vars"] == 3 and cfg["theory"] == "dlo"
    rep = run(cfg)
    assert rep["items"]["count"] == 13


def test_config_rejects_unknown_fields():
    from tgw.errors import PreconditionError
    with pytest.raises(PreconditionError, match="unknown config fields"):
        run({"command": "types", "theory": "dlo", "vars": 2, "bogus": 1})


def test_exit_code_contract():
    rep = {"certificates": [{"name": "a", "passed": True},
                            {"name": "b", "passed": False}]}
    assert first_failure(rep) == "b"
    rep["certificates"][1]["passed"] = True
    assert first_failure(rep) is None


def test_model_dump(capsys):
    code, rep = capture(capsys, ["model", "dump", "--theory", "randomgraph",
                                 "--size", "4"])
    assert code == 0
    assert len(rep["items"]["carrier"]) == 4
    assert "adj" in rep["items"]["atoms"]


USAGE_CASES = [
    ("types --theory dlo", "types requires --vars"),
    ("dphi --theory dlo", "dphi requires --level"),
    ("theta --theory dlo", "theta requires --level"),
    ("groupoid verify --theory dlo", "groupoid verify requires --level"),
    ("compose --theory dlo --phi lt(x0,y0)", "compose requires --psi"),
    ("project --theory dlo --phi lt(x0,y0)", "project requires --to"),
    ("model dump --theory dlo", "model dump requires --size"),
    ("skolem --theory dlo", "skolem requires --formula"),
    ("source --theory dlo", "source requires --phi"),
    ("section --theory dlo --steps -1", "--steps must be an integer >= 0, not -1"),
    ("types --theory dlo --vars 2 --tapes 0", "--tapes must be an integer >= 1, not 0"),
    ("reconstruct --theory dlo --budget 0", "--budget must be an integer >= 1, not 0"),
    ("dphi --theory dlo --level -1", "--level must be an integer >= 0, not -1"),
    ("model dump --theory dlo --size -1", "--size must be an integer >= 0, not -1"),
    ("theta --theory dlo --level 1 --index -1", "--index must be an integer >= 0, not -1"),
    ("universality --theory dlo -k 0", "-k must be an integer >= 1, not 0"),
    ("universality --theory dlo --samples 0", "--samples must be an integer >= 1, not 0"),
    # the predicate grammar adds nothing past depth 1
    ("reconstruct --theory dlo --depth 2", "--depth must be 0 or 1, not 2"),
    # the scan quantifies y0 and the x-variables around phi
    ("skolem --theory dlo --formula '(lt(x0,y0) & exists x1. (lt(x1,y0) & lt(x0,x1)))'",
     "phi must not bind x-variables, nor y0 where it is free"),
    ("skolem --theory dlo --formula '(lt(x0,y0) & exists y0. lt(x0,y0))'",
     "phi must not bind x-variables, nor y0 where it is free"),
]


@pytest.mark.parametrize("argv,error", USAGE_CASES, ids=[argv for argv, _ in USAGE_CASES])
def test_missing_or_out_of_range_parameters_are_usage_errors(capsys, argv, error):
    # refused up front with exit 2, not a traceback, a default or a wrong run
    code, rep = capture(capsys, shlex.split(argv))
    assert code == 2 and rep == {"error": error, "kind": "usage"}


def test_explicit_zero_depth_is_honoured(capsys):
    code, rep = capture(capsys, ["subgroupoids", "--theory", "dlo", "--depth", "0"])
    assert code == 0 and rep["parameters"] == {"depth": 0}
    levels = [c["name"] for c in rep["certificates"] if c["name"].startswith("level-equality")]
    assert levels == ["level-equality[0]"]
    # depth 0 offers the atoms and their negations only at depth 1
    assert not any(c["formula"].startswith("!") for c in rep["items"]["candidates"])


CONFIG_CASES = [
    ("source --theory dlo", {"phi": 3}, "--phi must be a string, not 3"),
    ("dphi --theory dlo", {"level": True}, "--level must be an integer >= 0, not True"),
    ("dphi --theory dlo --level 1", {"json": ["report.json"]},
     "--json must be a string, not ['report.json']"),
    ("dphi --level 1", {"theory": ["dlo"]},
     "theory must be one of ['dlo', 'equivinf', 'pureset', 'randomgraph']"),
    ("types --theory dlo --vars 1", {"level": 1}, "unknown config fields for types: ['level']"),
]


@pytest.mark.parametrize("argv,config,error", CONFIG_CASES,
                         ids=[f"{argv} {config}" for argv, config, _ in CONFIG_CASES])
def test_config_values_are_checked(tmp_path, capsys, argv, config, error):
    # a --config file is held to the same table as the flags
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, rep = capture(capsys, ["--config", str(path), *argv.split()])
    assert code == 2 and rep == {"error": error, "kind": "usage"}


@pytest.mark.parametrize("argv", ["dphi --theory dlo --level 1 --max-grid 0",
                                  "types --theory dlo --vars 1 --max-grid 0",
                                  "model dump --theory dlo --size 1 --max-depth 0",
                                  "reconstruct --theory dlo --level 1",
                                  # flags are spelled in full
                                  "dphi --theory dlo --lev 1"])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv.split()[-2:])}" in capsys.readouterr().err


def test_flag_values_joined_by_equals_or_attached_to_k():
    assert config_from_args(["dphi", "--theory=dlo", "--level=3"]) == \
        {"command": "dphi", "theory": "dlo", "level": 3}
    for argv in (["-k", "2"], ["-k=2"], ["-k2"]):
        assert config_from_args(["universality", *argv])["k"] == 2
    # a later flag overrides an earlier one; a negative number is a value
    assert config_from_args(["section", "--steps", "1", "--steps", "-1"])["steps"] == -1


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_names_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        config_from_args([*(command.split() if command else ()), "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in [command] if command else COMMANDS:
        for key, default in COMMANDS[name].items():
            note = "required" if default is cli.REQUIRED else f"default {default}"
            assert any(line.split()[:1] == [cli._flag(key)] and line.endswith(note)
                       for line in out.splitlines()), (name, key)


@pytest.mark.parametrize("argv,message", [
    ("", "a subcommand is required"),
    ("groupoid", "usage: tgw groupoid verify ..."),
    ("nosuch", "argument command: invalid choice: 'nosuch'"),
    ("types --theory dlo --vars x", "argument --vars: invalid int value: 'x'"),
    ("types --theory dlo --vars", "argument --vars: expected one argument"),
    ("--config", "argument --config: expected one argument"),
])
def test_malformed_command_lines_exit_2_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tgw") and f"tgw: error: {message}" in err


CHEAP = {
    "types": "--vars 1", "dphi": "--level 1", "compose": "--phi eq(x0,y0) --psi eq(y0,z0)",
    "source": "--phi eq(x0,y0)", "subgroupoids": "--depth 0", "groupoid verify": "--level 1",
    "project": "--phi eq(x0,y0) --to 0", "theta": "--level 1", "reconstruct": "--budget 2",
    "section": "", "skolem": "--formula eq(x0,y0)", "universality": "--samples 1",
    "model dump": "--size 2",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_handler_reads_every_parameter_it_declares(capsys, monkeypatch, command):
    # a declared parameter that no handler reads would be accepted and ignored
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    handler = HANDLERS[command]
    monkeypatch.setitem(HANDLERS, command, lambda cfg: handler(Recording(cfg)))
    assert main([*command.split(), "--theory", "pureset", *CHEAP[command].split()]) == 0
    capsys.readouterr()
    assert set(COMMANDS[command]) <= read


def test_commands_evaluate_at_most_one_quantifier(capsys, monkeypatch):
    # rich formulas are quantifier-free, so the model evaluates only
    # exists y0. phi_k and the clauses forall y0 (phi_k -> phi_k[y0 := x_k])
    compiled = []
    compile_one = models._compile

    def recording(f, theory):
        compiled.append(f)
        return compile_one(f, theory)

    monkeypatch.setattr(models, "_COMPILED", {})
    monkeypatch.setattr(models, "_compile", recording)
    runs = [[*command.split(), "--theory", theory, *CHEAP[command].split()]
            for command in COMMANDS for theory in theories.THEORIES]
    runs += [[*argv, "--theory", theory] for theory in theories.THEORIES
             for argv in (["section", "--steps", "6"], ["universality"], ["reconstruct"])]
    for argv in runs:
        assert main(argv) in (0, 1), argv
        capsys.readouterr()
    # every subformula is compiled too, so depth 1 means: some quantifier,
    # and no quantifier whose body binds a variable
    quantifiers = [f for f in compiled if isinstance(f, (Exists, Forall))]
    assert quantifiers and not any(f.body.bound_vars for f in quantifiers)


# For each parameter of each command: the rest of a cheap pureset invocation
# and two accepted values, whose reports must differ.
VARIED = {
    ("types", "vars"): ("", "1", "2"),
    ("types", "tapes"): ("--vars 1", "1", "2"),
    ("types", "constraint"): ("--vars 2", "true", "eq(x0,x1)"),
    ("dphi", "level"): ("", "1", "4"),
    ("compose", "phi"): ("--psi eq(y0,z0)", "eq(x0,y0)", "true"),
    ("compose", "psi"): ("--phi eq(x0,y0)", "eq(y0,z0)", "true"),
    ("source", "phi"): ("", "eq(x0,y0)", "eq(x0,x1)"),
    ("subgroupoids", "depth"): ("", "0", "1"),
    ("groupoid verify", "level"): ("", "0", "1"),
    ("project", "phi"): ("--to 1", "eq(x0,y0)", "!eq(x0,y0)"),
    ("project", "to"): ("--phi (eq(x0,y0)&eq(x1,y1))", "0", "1"),
    ("theta", "level"): ("", "0", "1"),
    ("theta", "tapes"): ("--level 1", "2", "3"),
    ("theta", "index"): ("--level 1", "0", "1"),
    ("reconstruct", "depth"): ("--budget 2", "0", "1"),
    ("reconstruct", "budget"): ("", "2", "3"),
    ("section", "steps"): ("", "0", "1"),
    ("skolem", "formula"): ("", "eq(x0,y0)", "!eq(x0,y0)"),
    ("universality", "k"): ("--samples 1", "1", "2"),
    ("universality", "samples"): ("", "1", "2"),
    ("universality", "m0"): ("--samples 1", "1", "8"),
    ("model dump", "size"): ("", "1", "2"),
}
# the item that repeats a parameter's value back
ECHOES = {("dphi", "level"): "level", ("project", "to"): "level",
          ("reconstruct", "depth"): "depth", ("reconstruct", "budget"): "budget",
          ("skolem", "formula"): "formula", ("universality", "samples"): "samples"}
PARAMETERS = [(command, key) for command, table in COMMANDS.items() for key in table]


@pytest.mark.parametrize("command,key", PARAMETERS,
                         ids=[f"{c} {cli._flag(k)}" for c, k in PARAMETERS])
def test_every_parameter_changes_some_report(capsys, command, key):
    # a parameter whose value only its own echo shows computes nothing
    rest, *values = VARIED[command, key]
    reports = []
    for value in values:
        main([*command.split(), "--theory", "pureset", *rest.split(), cli._flag(key), value])
        report = json.loads(capsys.readouterr().out)
        report.pop("timing_ms", None)
        report.get("parameters", {}).pop(key, None)
        report.get("items", {}).pop(ECHOES.get((command, key)), None)
        reports.append(report)
    assert reports[0] != reports[1]


def assert_closed_stdout_is_no_traceback(argv):
    # the reader closes the pipe before the report is written
    src = str(Path(tgw.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "tgw", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_a_closed_stdout_is_no_traceback():
    assert_closed_stdout_is_no_traceback("dphi --theory dlo --level 2")


def test_a_closed_stdout_is_no_traceback_in_a_report_of_many_blocks():
    # 602 KB, many blocks: the pipe breaks at a block's write, mid-walk
    assert_closed_stdout_is_no_traceback("types --theory dlo --vars 6")


class CountingIO(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                              st.characters()))
json_scalars = st.one_of(
    json_text, st.integers(), st.sampled_from([-(2 ** 100), 10 ** 40]),
    st.floats(), st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.booleans(), st.none())
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(json_text, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_report_writer_matches_json_dumps(value):
    fh = io.StringIO()
    cli._write_report(value, fh)
    assert fh.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_report_writer_flushes_long_lists_in_blocks():
    value = {"items": {"rows": [[i, -i, str(i), {"x": 0.5}] for i in range(cli._BLOCK)]},
             "empty": [[], {}, ()]}
    fh = CountingIO()
    cli._write_report(value, fh)
    assert fh.writes > 2
    assert fh.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {True: 0}, {(1,): 0},
                                   {"a": {1, 2}}, [object()], [Fraction(1, 2)]])
def test_report_writer_refuses_non_str_keys_and_non_json_values(value):
    with pytest.raises(TypeError):
        cli._write_report(value, io.StringIO())


# Each report's digest as `bench/run.py` computes it, recorded before the
# diagrams lost their relation tables.  A change that alters a report on
# purpose updates its digest here.
PINNED_REPORTS = [
    ("types --theory pureset --vars 0", 0, "c1ba818f9b1c"),
    ("types --theory pureset --vars 1", 0, "193583d01b95"),
    ("types --theory pureset --vars 2", 0, "805dc5cabb88"),
    ("types --theory pureset --vars 3", 0, "1eb0b2c6f21f"),
    ("types --theory pureset --tapes 2 --vars 2", 0, "5e06ac3d8ecc"),
    ("types --theory dlo --vars 0", 0, "846617542206"),
    ("types --theory dlo --vars 1", 0, "49c7a1927f3e"),
    ("types --theory dlo --vars 2", 0, "9fe34f186f92"),
    ("types --theory dlo --vars 3", 0, "4fd11704a9d9"),
    ("types --theory dlo --tapes 2 --vars 2", 0, "0fff110f1dbb"),
    ("types --theory randomgraph --vars 0", 0, "7d8efabae17e"),
    ("types --theory randomgraph --vars 1", 0, "2158be893686"),
    ("types --theory randomgraph --vars 2", 0, "4b2c99d75ab4"),
    ("types --theory randomgraph --vars 3", 0, "ec91b5fabe03"),
    ("types --theory randomgraph --tapes 2 --vars 2", 0, "f475fa0edeac"),
    ("types --theory equivinf --vars 0", 0, "16d8063756da"),
    ("types --theory equivinf --vars 1", 0, "4844c6eb3495"),
    ("types --theory equivinf --vars 2", 0, "74a6ef27f8f4"),
    ("types --theory equivinf --vars 3", 0, "5dc499c4e65a"),
    ("types --theory equivinf --tapes 2 --vars 2", 0, "d571f933d90d"),
    # the benchmark's three `types` ops
    ("types --theory equivinf --vars 7", 0, "4f42bf83198d"),
    ("types --theory dlo --vars 6", 0, "ea0cb2e71d5a"),
    ("types --theory dlo --vars 5 --constraint (lt(x0,x1)&lt(x2,x3))", 0, "680507d49f81"),
    ("theta --theory equivinf --level 2 --index 7", 0, "05a4c50cd6c0"),
    ("compose --theory dlo --phi (lt(x0,y0)&lt(x1,y1)) --psi (lt(y0,z0)&lt(y1,z1))", 0, "19ae0858c60a"),
    ("project --theory dlo --phi (lt(x0,y0)&lt(x1,y1)) --to 0", 0, "84b33b535614"),
    ("source --theory dlo --phi (lt(x0,x1)&eq(x1,y0))", 0, "ce8ac4a52aa6"),
    ("groupoid verify --theory equivinf --level 1", 0, "d930fbb5e335"),
    ("section --theory dlo --steps 3", 0, "697a945e5ec9"),
    ("reconstruct --theory pureset --budget 8", 0, "33e2146a0bbc"),
    ("section --theory equivinf --steps 6", 0, "828f06d47690"),
    ("section --theory pureset --steps 6", 0, "608022c7efd4"),
    ("section --theory randomgraph --steps 3", 0, "c0a7767ffefb"),
    # x_16's block index 3 is also slot m_0, so its diagram identifies the two
    ("section --theory pureset --steps 17", 0, "77ac9cd371c2"),
    ("section --theory equivinf --steps 17", 0, "fb557ade90c2"),
    # the recorded section-schedule defect: both print the same error report
    ("section --theory dlo --steps 4", 1, "e4f4ec4ddc11"),
    ("section --theory randomgraph --steps 4", 1, "e4f4ec4ddc11"),
    ("universality --theory randomgraph -k 2 --samples 4", 0, "64b8dbc1194c"),
    ("reconstruct --theory dlo --budget 8", 0, "5872196b8d90"),
    # every other benchmark op (`bench/ops.py`)
    ("groupoid verify --theory equivinf --level 2", 0, "174bfc33997c"),
    ("groupoid verify --theory pureset --level 2", 0, "377d295a8faf"),
    ("groupoid verify --theory dlo --level 1", 0, "aaa2be2f134b"),
    ("groupoid verify --theory randomgraph --level 1", 0, "89d9bab68e3b"),
    ("project --theory dlo --phi (lt(x0,y0)&lt(x1,y1)) --to 1", 0, "e89bb3fa9aa7"),
    ("section --theory pureset --steps 2", 0, "24739c94aad2"),
    ("dphi --theory dlo --level 20", 0, "ebe1078995da"),
    ("dphi --theory randomgraph --level 20", 0, "87ef26086439"),
    ("dphi --theory equivinf --level 24", 0, "69b40c757323"),
    ("dphi --theory pureset --level 24", 0, "f928c3d82918"),
    ("subgroupoids --theory dlo --depth 1", 0, "8c445955b622"),
    ("subgroupoids --theory equivinf --depth 1", 0, "38037873da81"),
    ("subgroupoids --theory randomgraph --depth 1", 0, "a29e26e59d24"),
    ("source --theory equivinf --phi (equiv(x0,y0)&!eq(x0,y0))", 0, "c05efe6a00a8"),
    ("compose --theory equivinf --phi equiv(x0,y0) --psi equiv(y0,z0)", 0, "461242062dff"),
    ("skolem --theory dlo --formula lt(x0,y0)", 0, "a3ab15637c6a"),
    ("skolem --theory randomgraph --formula adj(x0,y0)", 0, "346c05b8a1eb"),
    # the slowest scans that pass: index 15 on both
    ("skolem --theory dlo --formula lt(y0,x0)", 0, "7e1a68442e67"),
    ("skolem --theory equivinf --formula (equiv(x0,y0)&!eq(x0,y0))", 0, "ccfa436cd622"),
    ("groupoid verify --theory pureset --level 1", 0, "48e2f6e134f7"),
    ("universality --theory equivinf -k 3 --samples 32", 0, "3a0a64cf71e6"),
    ("universality --theory randomgraph -k 2 --samples 32", 0, "1590db6eccb9"),
    ("universality --theory dlo -k 2 --samples 32", 0, "2eae0db8d044"),
    ("reconstruct --theory dlo --budget 32", 0, "a7ddca29f41f"),
    ("reconstruct --theory randomgraph --budget 32", 0, "ec9946b9a2ad"),
    ("model dump --theory dlo --size 200", 0, "d5a294e4b394"),
    # conjuncts 33 and 39 passed the DNF cap before QE was miniscoped
    ("dphi --theory equivinf --level 34", 0, "76a14c3b3941"),
    ("dphi --theory equivinf --level 40", 0, "c239ae38bfa4"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS,
                         ids=[argv for argv, _, _ in PINNED_REPORTS])
def test_reports_are_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    rest = {k: v for k, v in report.items() if k != "timing_ms"}
    assert hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()[:12] == digest


# Nodes hash by identity, so the order in which a set or dict of formulas is
# iterated depends on where they sit in memory.  Each of these runs in a
# fresh process that first builds unrelated formulas, a different number per
# run, under its own string-hash seed.
PERTURBED = """
import sys
from tgw.cli import main
from tgw.formula import Atom, VarRef, conj, disj
junk = [disj([conj([Atom("junk", (VarRef(9, i), VarRef(8, j))) for j in range(i % 5 + 2)]),
              Atom("junk", (VarRef(7, i), VarRef(6, i)))])
        for i in range(int(sys.argv[1]))]
sys.exit(main(sys.argv[2:]))
"""
FRESH = [argv for argv, _, _ in PINNED_REPORTS
         if argv.split()[0] in ("compose", "project", "source", "theta", "reconstruct",
                                "section", "universality")]


@pytest.mark.parametrize("run", range(len(FRESH)), ids=FRESH)
def test_pinned_reports_in_perturbed_processes(run):
    argv = FRESH[run]
    _, code, digest = next(p for p in PINNED_REPORTS if p[0] == argv)
    src = str(Path(tgw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": str(run),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PERTURBED, str(97 * run + 13), *argv.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    rest = {k: v for k, v in json.loads(proc.stdout).items() if k != "timing_ms"}
    assert hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()[:12] == digest
