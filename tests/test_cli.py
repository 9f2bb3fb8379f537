import json
import time

import pytest

from tgw import categorical, groupoid, rich, theories
from tgw.cli import COMMANDS, HANDLERS, config_from_args, first_failure, main, run
from tgw.groupoid import LevelTable


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


def test_determinism_minus_timing(capsys):
    argv = ["reconstruct", "--theory", "dlo", "--level", "1", "--depth", "1",
            "--budget", "4"]
    _, a = capture(capsys, argv)
    _, b = capture(capsys, argv)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["types", "--theory", "nosuch", "--vars", "2"])
    assert exc.value.code == 2
    assert main(["skolem", "--theory", "dlo", "--formula", "lt(x0"]) == 2


def test_resource_cap_exit_code():
    assert main(["types", "--theory", "randomgraph", "--vars", "9",
                 "--tapes", "2"]) == 3
    assert main(["types", "--theory", "dlo", "--vars", "1", "--max-grid", "0"]) == 3


def test_verify_cap_counts_composition_amalgams(capsys):
    # level 3 composes over 9-variable amalgams: refused before any enumeration
    start = time.perf_counter()
    code, rep = capture(capsys, ["groupoid", "verify", "--theory", "randomgraph",
                                 "--level", "3", "--max-grid", "8"])
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
    code, rep = capture(capsys, ["dphi", "--theory", "dlo", "--level", "10"])
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


def test_true_slot_scan_cap_fields(capsys, monkeypatch):
    monkeypatch.setattr(categorical, "TRUE_SLOT_SCAN_CAP", 0)
    code, rep = capture(capsys, ["universality", "--theory", "dlo"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("true-slot-scan", 0, 1)


def test_quantifier_depth_cap_fields(capsys):
    # 0 is a depth cap like any other, not the default
    code, rep = capture(capsys, ["universality", "--theory", "dlo", "--max-depth", "0"])
    assert code == 3 and rep["kind"] == "resource-cap"
    assert (rep["cap"], rep["limit"], rep["observed"]) == ("quantifier-depth", 0, 1)


def test_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["dphi", "--theory", "pureset", "--level", "1",
                 "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    saved = json.loads(path.read_text())
    assert saved["command"] == "dphi"
    assert saved["items"]["raw"] == "forall y0. (true -> true)"


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
    ("types --theory dlo --vars 1 --max-grid -1", "--max-grid must be an integer >= 0, not -1"),
    ("universality --theory dlo -k 0", "-k must be an integer >= 1, not 0"),
    ("universality --theory dlo --samples 0", "--samples must be an integer >= 1, not 0"),
    ("universality --theory dlo --max-depth -1", "--max-depth must be an integer >= 0, not -1"),
]


@pytest.mark.parametrize("argv,error", USAGE_CASES, ids=[argv for argv, _ in USAGE_CASES])
def test_missing_or_out_of_range_parameters_are_usage_errors(capsys, argv, error):
    # refused up front with exit 2, not a traceback, a default or a wrong run
    code, rep = capture(capsys, argv.split())
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
                                  "model dump --theory dlo --size 1 --max-depth 0"])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv.split()[-2:])}" in capsys.readouterr().err


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
