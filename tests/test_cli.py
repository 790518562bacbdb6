import gc
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
from copy import deepcopy
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radmm as rm
import radmm.cli as cli
from radmm.config import (
    DEFAULT_TOL_LOSSLESS,
    DEFAULT_TOL_LOSSY,
    REQUIRED,
    CheckSpec,
    ConfigError,
    ExperimentConfig,
    GraphSpec,
    InstanceSpec,
    LossSpec,
    ParamsSpec,
    RunSpec,
    SweepSpec,
    _SECTIONS,
    build_graph,
    load_config,
    override_seeds,
    parse_config,
)
from radmm.experiments import stability_sweep
from radmm.problem import problem_from_json, problem_to_json
from test_problem import rank_one_problem


def base_config(**overrides):
    doc = {
        "schema": "radmm-config/1",
        "graph": {"nodes": 6, "radius": 0.5, "seed": 3, "require_connected": True},
        "instance": {"dim": 2, "rows": 3, "seed": 4},
        "params": {"alpha": 0.75, "rho": 3.0},
        "loss": {"p": 0.0, "seed": 5},
        "run": {"k_max": 200, "runs": 1, "tol": 1e-6},
        "check": {"k_max": 20, "seed": 6, "tol": 1e-9},
        "output": {"prefix": "t"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_generate_writes_instance(tmp_path):
    cfg = write_config(tmp_path, base_config())
    rc = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    p = problem_from_json((tmp_path / "o" / "t_instance.json").read_text())
    assert p.graph.node_count == 6


def test_generate_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "t_instance.json").read_bytes()
    b = (tmp_path / "b" / "t_instance.json").read_bytes()
    assert a == b


def test_run_single_round_single_row(tmp_path):
    doc = base_config()
    doc["run"] = {"k_max": 1, "runs": 1, "tol": 1e-6}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "o" / "t_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "k,rel_error,diverged"
    assert len(lines) == 2


def test_run_p1_trace_is_flat_after_first_round(tmp_path):
    doc = base_config()
    doc["loss"] = {"p": 1.0, "seed": 5}
    doc["run"] = {"k_max": 30, "runs": 1, "tol": 1e-6}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "o" / "t_trace.csv").read_text().strip().split("\n")[1:]
    errors = [line.split(",")[1] for line in lines]
    assert len(set(errors[1:])) == 1


def test_run_divergence_exit_code(tmp_path):
    doc = base_config()
    doc["params"] = {"alpha": 1.7, "rho": 3.0}
    doc["run"] = {"k_max": 3000, "runs": 1, "tol": 1e-6}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_DIVERGED


def test_run_monte_carlo_csv(tmp_path):
    doc = base_config()
    doc["loss"] = {"p": [0.2, 0.4], "seed": 5}
    doc["run"] = {"k_max": 200, "runs": 3, "tol": 1e-4}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    for p in ("0.2", "0.4"):
        lines = (tmp_path / "o" / f"t_trace_p{p}.csv").read_text().strip().split("\n")
        assert lines[0] == "k,mean_rel_error,min,max"
        assert len(lines) > 2
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert (tmp_path / "o" / "t_trace_p0.2.csv").read_bytes() == (
        tmp_path / "o2" / "t_trace_p0.2.csv"
    ).read_bytes()


def test_run_with_loss_table(tmp_path):
    doc = base_config()
    # path-ish 6-node graph from seed 3 has specific edges; use generate first
    cfg = write_config(tmp_path, doc)
    cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")])
    p = problem_from_json((tmp_path / "o" / "t_instance.json").read_text())
    table = {f"{i}->{j}": 0.3 for i, j in p.graph.directed_edges()}
    doc["loss"] = {"table": table, "seed": 5}
    doc["run"] = {"k_max": 300, "runs": 2, "tol": 1e-4}
    cfg2 = write_config(tmp_path, doc, name="cfg2.json")
    rc = cli.main(
        ["run", "--config", cfg2, "--instance", str(tmp_path / "o" / "t_instance.json"),
         "--out", str(tmp_path / "o2")]
    )
    assert rc == cli.EXIT_OK
    assert (tmp_path / "o2" / "t_trace.csv").exists()


def test_run_with_an_empty_loss_table_on_a_graph_without_edges(tmp_path):
    doc = base_config(loss={"table": {}, "seed": 3})
    doc["graph"]["nodes"] = 1
    rc = cli.main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    assert [f.name for f in (tmp_path / "o").iterdir()] == ["t_trace.csv"]


def _fresh(script: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run script with args in a fresh interpreter that imports radmm from this tree."""
    src = str(Path(rm.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _python(script: str, env: dict | None = None) -> str:
    """Run script in a fresh interpreter; its last line of output."""
    done = _fresh(script, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_run_and_sweep_from_an_instance_never_import_numpy_random(tmp_path):
    # Masks and run seeds are hashed without numpy.random, whose import
    # (secrets and hmac with it) would cost every short `radmm run` ~16 ms.
    # Each command also loads only the radmm modules it uses, and `import
    # radmm` alone loads no numpy.
    doc = base_config(
        loss={"p": [0.0, 0.3], "seed": 5},
        sweep={"rho": [3.0], "alpha": [0.5, 1.3], "p": [0.0, 0.3], "runs": 2, "k_max": 100},
    )
    inst = tmp_path / "o" / "t_instance.json"
    out = ["--out", str(tmp_path / "o")]
    cfgs = {}
    for runs in (1, 3):
        doc["run"]["runs"] = runs
        cfgs[runs] = write_config(tmp_path, doc, name=f"runs{runs}.json")
    # each command with the radmm modules it must not load
    commands = [
        (["generate", "--config", cfgs[1], *out],
         {"core", "engine", "lossy", "experiments", "reference"}),
        (["run", "--config", cfgs[1], "--instance", str(inst), *out],
         {"core", "experiments", "reference"}),
        (["run", "--config", cfgs[3], "--instance", str(inst), *out], {"core", "reference"}),
        (["sweep", "--config", cfgs[3], "--instance", str(inst), *out], {"core", "reference"}),
        (["check", "--config", cfgs[1], "--instance", str(inst), *out], {"experiments"}),
    ]
    for argv, unused in commands:
        script = (
            "import sys\n"
            "from radmm.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy.random' in sys.modules, sorted(sys.modules))\n"
        )
        code, has_random, loaded = _python(script).split(" ", 2)
        assert code == "0", argv
        if argv[0] in ("run", "sweep"):
            assert has_random == "False", argv
        assert not {f"radmm.{m}" for m in unused} & set(eval(loaded)), argv
    assert _python("import sys, radmm\nprint('numpy' in sys.modules)") == "False"


def test_run_and_generate_never_import_argparse(tmp_path):
    # flags are read from one table: argparse's import and parser cost
    # every command ~4 ms
    cfg = write_config(tmp_path, base_config())
    out = ["--out", str(tmp_path / "o")]
    for argv in (["generate", "--config", cfg, *out], ["run", "--config", cfg, *out],
                 ["run", "--preset", "fig3", *out]):
        script = (
            "import sys\n"
            "from radmm.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'argparse' in sys.modules)\n"
        )
        assert _python(script) == "0 False", argv


def test_no_radmm_module_imports_dataclasses():
    # records are plain classes: the dataclass decorator execs generated
    # source for every class it decorates, which each command would pay at
    # import (numpy, argparse and json import no dataclasses themselves)
    modules = ("cli", "config", "graph", "problem", "lossy", "core", "engine", "experiments",
               "reference")
    script = (
        "import sys\n"
        f"import {', '.join(f'radmm.{m}' for m in modules)}\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _python(script) == "False"


# `python -m radmm.cli ARGS` as runpy runs it, with an atexit probe that
# prints whether the collector was frozen before the interpreter shut down
ENTRY_PROBE = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
    "runpy.run_module('radmm.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "edit, code",
    [
        ({"loss": {"p": [0.0, 0.3], "seed": 5}, "run": {"k_max": 200, "runs": 2}}, cli.EXIT_OK),
        ({"run": {"runs": 0}}, cli.EXIT_CONFIG),
        ({"params": {"alpha": 1.7, "rho": 3.0}, "run": {"k_max": 3000}}, cli.EXIT_DIVERGED),
    ],
    ids=["ok", "invalid", "diverged"],
)
def test_process_entry_freezes_the_collector_and_writes_what_main_writes(
    tmp_path, capsys, edit, code
):
    cfg = write_config(tmp_path, base_config(**edit))
    argv = ["run", "--config", cfg]
    assert cli.main([*argv, "--out", str(tmp_path / "main")]) == code
    err = capsys.readouterr().err
    done = _fresh(ENTRY_PROBE, *argv, "--out", str(tmp_path / "entry"))
    assert done.returncode == code, done.stderr
    assert done.stderr == err
    assert done.stdout.splitlines()[-1] == "frozen True"
    written = {
        name: sorted((f.name, f.read_bytes()) for f in (tmp_path / name).iterdir())
        for name in ("main", "entry")
        if (tmp_path / name).exists()
    }
    assert written.get("entry") == written.get("main")
    assert (code == cli.EXIT_CONFIG) == (written == {})


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_the_radmm_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"radmm": "radmm.cli:entry"}
    assert callable(cli.entry)


def test_run_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # x* comes from a blocked LU solve whose sums depend on the BLAS thread
    # count at this size (200 unknowns); `main` pins one thread
    doc = base_config(
        graph={"nodes": 100, "radius": 0.2, "seed": 7},
        instance={"dim": 2, "rows": 2, "seed": 7},
        loss={"p": 0.2, "seed": 101},
        run={"k_max": 30, "runs": 1},
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        inst = str(tmp_path / "t_instance.json")
        argv = ["run", "--config", cfg, "--instance", inst, "--out", str(out)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        _python(f"from radmm.cli import main\nprint(main({argv!r}))", env)
        traces.append((out / "t_trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_check_passes_on_generated_instance(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    report = (tmp_path / "o" / "t_check.txt").read_text()
    assert "max_deviation" in report
    # one line per (alpha, rho, loss value) of the config, a loss table as p=table
    for loss, labels in [
        ({"p": [0.0, 0.4]}, ["p=0.0", "p=0.4"]),
        ({"p": None, "table": _table_of(0.3)}, ["p=table"]),
    ]:
        doc = base_config()
        doc["loss"].update(loss)
        out_dir = tmp_path / labels[-1]
        assert cli.main(["check", "--config", write_config(tmp_path, doc), "--out", str(out_dir)]) == cli.EXIT_OK
        *lines, verdict = (out_dir / "t_check.txt").read_text().splitlines()
        assert [line.split()[2] for line in lines] == labels
        assert all(float(line.split("max_deviation=")[1]) < 1e-9 for line in lines)
        assert verdict.endswith("PASS")


def test_sweep_writes_outcomes(tmp_path):
    doc = base_config()
    doc["sweep"] = {
        "rho": [3.0],
        "alpha": [0.5, 1.6],
        "p": [0.0],
        "runs": 1,
        "k_max": 2000,
        "tol": 1e-4,
    }
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "o" / "t_sweep.csv").read_text()
    assert "3.0,0.5,0.0,converged" in text
    assert "3.0,1.6,0.0,diverged" in text


def test_sweep_without_section_is_config_error(tmp_path):
    cfg = write_config(tmp_path, base_config())
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_empty_grid_is_config_error(tmp_path):
    doc = base_config()
    doc["sweep"] = {"rho": [], "alpha": [0.5], "p": [0.0]}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_missing_seed_is_config_error(tmp_path):
    doc = base_config()
    del doc["loss"]["seed"]
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_config_and_preset_are_mutually_exclusive(tmp_path):
    cfg = write_config(tmp_path, base_config())
    rc = cli.main(["run", "--config", cfg, "--preset", "fig1", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_unknown_preset_is_config_error(tmp_path):
    rc = cli.main(["generate", "--preset", "nope", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_seed_override_changes_instance(tmp_path):
    cfg = write_config(tmp_path, base_config())
    cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["generate", "--config", cfg, "--seed-override", "123", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "t_instance.json").read_bytes()
    b = (tmp_path / "b" / "t_instance.json").read_bytes()
    assert a != b


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--instance", "i.json"],
        ["generate", "--jobs", "2"],
        ["check", "--jobs", "2"],
        ["sweep", "--jobs", "2"],
    ],
    ids=["generate-instance", "generate-jobs", "check-jobs", "sweep-jobs"],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, argv):
    cfg = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["run", "--out"],
        ["run", "--config"],
        ["run", "--config", "--out", "o"],
        ["run", "--seed-override", "x"],
        ["run", "--seed-override=1.5"],
        ["run", "--jobs", "two"],
        ["run", "extra"],
        ["check", "--jobs=1"],
    ],
    ids=["no-command", "unknown-command", "missing-value", "missing-config-value",
         "flag-as-value", "non-integer", "non-integer-equals", "non-integer-jobs",
         "positional", "check-jobs-equals"],
)
def test_usage_errors_exit_2_with_one_usage_line_and_no_output(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)  # where the default --out would be written
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage: radmm")
    assert not list(tmp_path.iterdir())


def test_flags_take_space_or_equals_values(tmp_path):
    cfg = write_config(tmp_path, base_config())
    spaced = ["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed-override", "9"]
    joined = ["run", f"--config={cfg}", f"--out={tmp_path / 'b'}", "--seed-override=9", "--jobs=1"]
    for argv in (spaced, joined):
        assert cli.main(argv) == cli.EXIT_OK
    a, b = ((tmp_path / out / "t_trace.csv").read_bytes() for out in "ab")
    assert a == b
    assert cli.parse_args(joined) == ("run", {
        "config": cfg, "preset": None, "out": str(tmp_path / "b"), "seed_override": 9,
        "instance": None, "jobs": 1,
    })


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: radmm")
    assert all(name in out for name in ("generate", "run", "check", "sweep", "--seed-override"))


def test_run_accepts_and_ignores_jobs(tmp_path):
    cfg = write_config(tmp_path, base_config())
    for out, jobs in (("a", []), ("b", ["--jobs", "1"])):
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / out), *jobs]) == cli.EXIT_OK
    assert (tmp_path / "a" / "t_trace.csv").read_bytes() == (tmp_path / "b" / "t_trace.csv").read_bytes()


def test_all_presets_parse():
    for name in ("fig1", "fig2", "fig3", "fig4"):
        cfg = cli._load_preset(name)
        assert cfg.graph.nodes == 10
        assert cfg.graph.radius == 0.1
        assert cfg.check is not None


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(example))
    assert cfg.graph.effective_radius == 0.35
    assert cfg.sweep.rho == [0.5, 1.0, 3.0, 5.0]


def test_config_schema_enforced(tmp_path):
    doc = base_config()
    doc["schema"] = "radmm-config/999"
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_required_keys_only_parse_to_spec_defaults():
    required = {
        "schema": "radmm-config/1",
        "graph": {"nodes": 6, "radius": 0.5, "seed": 3},
        "instance": {"dim": 2, "rows": 3, "seed": 4},
        "params": {"alpha": 0.75, "rho": 3.0},
        "loss": {"p": 0.0, "seed": 5},
        "run": {},
        "sweep": {"rho": [3.0], "alpha": [0.5], "p": [0.0]},
        "check": {"seed": 6},
    }
    nulls = json.loads(json.dumps(required))
    for section, keys in {
        "graph": ("require_connected", "max_resamples", "radius_override"),
        "instance": ("conditioning",),
        "run": ("k_max", "runs", "tol"),
        "sweep": ("runs", "k_max", "tol"),
        "check": ("k_max", "tol"),
    }.items():
        nulls[section].update(dict.fromkeys(keys))
    nulls["output"] = {"prefix": None}
    expected = ExperimentConfig(
        graph=GraphSpec(nodes=6, radius=0.5, seed=3),
        instance=InstanceSpec(dim=2, rows=3, seed=4),
        params=ParamsSpec(alpha=[0.75], rho=[3.0]),
        loss=LossSpec(seed=5, p=[0.0]),
        run=RunSpec(),
        output_prefix="experiment",
        sweep=SweepSpec(rho=[3.0], alpha=[0.5], p=[0.0]),
        check=CheckSpec(seed=6),
    )
    assert parse_config(required) == expected
    assert parse_config(nulls) == expected


def test_override_seeds_replaces_every_seed_and_nothing_else():
    seeded = {name for name, (spec, _) in _SECTIONS.items() if "seed" in spec.keys}
    assert seeded == {"graph", "instance", "loss", "check"}
    sweep = {"rho": [3.0], "alpha": [0.5], "p": [0.0, 0.3]}
    for check in (base_config()["check"], None):
        doc = base_config(check=check, sweep=sweep)
        cfg = parse_config(doc)
        new = override_seeds(cfg, 123)
        assert cfg == parse_config(doc)  # the input is not mutated
        assert (new.check is None) == (check is None)
        for name, value in vars(new).items():
            old = getattr(cfg, name)
            if name in seeded and value is not None:
                assert vars(value) == {**vars(old), "seed": 123}, name
            else:
                assert value == old, name


def test_each_spec_holds_its_table_defaults_and_takes_only_its_keys():
    for name, (spec, _) in _SECTIONS.items():
        required = {k: 1 for k, (_, default) in spec.keys.items() if default is REQUIRED}
        built = spec(**required)
        assert list(vars(built)) == list(spec.keys), name
        for key, (_, default) in spec.keys.items():
            assert getattr(built, key) == (1 if default is REQUIRED else default), (name, key)
        with pytest.raises(TypeError, match="unexpected keyword"):
            spec(**required, not_a_key=1)
        for key in required:
            with pytest.raises(TypeError, match=f"missing required keyword '{key}'"):
                spec(**{k: v for k, v in required.items() if k != key})


@pytest.mark.parametrize(
    "section, key",
    [("graph", "nodes"), ("instance", "dim"), ("instance", "rows"), ("run", "k_max"),
     ("run", "runs"), ("sweep", "k_max"), ("sweep", "runs")],
)
def test_every_count_must_be_positive(section, key):
    doc = base_config(sweep={"rho": [3.0], "alpha": [0.5], "p": [0.0]})
    doc[section][key] = 0
    with pytest.raises(ConfigError, match=f"^'{section}.{key}' must be positive, got 0$"):
        parse_config(doc)


@pytest.mark.parametrize("section, key", [("params", "alpha"), ("params", "rho"), ("loss", "p")])
def test_a_repeated_value_is_rejected_by_its_key(section, key):
    # run names each output file by these values: a repeat would run again
    # and write the same file twice
    doc = base_config()
    doc[section][key] = [0.2, 0.4, 0.2]
    with pytest.raises(ConfigError, match=f"^'{section}.{key}' repeats a value: "):
        parse_config(doc)


def test_tolerance_defaults_are_the_experiment_constants():
    assert RunSpec().resolved_tol(0.0) == DEFAULT_TOL_LOSSLESS
    assert RunSpec().resolved_tol(0.2) == DEFAULT_TOL_LOSSY
    assert SweepSpec(rho=[1.0], alpha=[0.5], p=[0.0]).tol == DEFAULT_TOL_LOSSY
    tol = inspect.signature(stability_sweep).parameters["tol"].default
    assert tol == DEFAULT_TOL_LOSSY


def _nograph_instance(tmp_path):
    path = tmp_path / "nograph.json"
    costs = {"rows": [3, 3, 3], "data": [0.5] * 72}
    path.write_text(json.dumps({"schema": "radmm-instance/2", "dim": 2, "costs": costs}))
    return path


def _few_rows_instance(tmp_path):
    # each cost has no rows, so H = 0 on 2 * 10**6 unknowns; its local
    # Hessian blocks alone would take 58 TiB
    path = tmp_path / "few_rows.json"
    doc = {"schema": "radmm-instance/2", "graph": {"nodes": 2, "edges": [[0, 1]]},
           "dim": 10**6, "costs": {"rows": [0, 0], "data": []}}
    path.write_text(json.dumps(doc))
    return path


def test_run_on_an_instance_with_a_singular_hessian_exits_2_without_output(tmp_path, capsys):
    # H has rank 1 but a Cholesky factor on rounding: the message names the
    # Hessian, not numpy's "Singular matrix"
    path = tmp_path / "rank_one.json"
    path.write_text(problem_to_json(rank_one_problem()))
    argv = ["run", "--config", write_config(tmp_path, base_config()), "--instance", str(path),
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "invalid input: global Hessian is singular or indefinite; the optimizer " \
                  "is not unique\n"
    assert not (tmp_path / "o").exists()


def test_check_on_an_instance_with_a_singular_local_system_exits_2_without_output(
        tmp_path, capsys):
    # the spec's local system is the rank-one H: the message names the local
    # subproblem, not numpy's "Singular matrix", and no report is written
    path = tmp_path / "rank_one.json"
    path.write_text(problem_to_json(rank_one_problem()))
    out = tmp_path / "o"
    argv = ["check", "--preset", "fig1", "--instance", str(path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("invalid input: local subproblem is singular")
    assert not (out / "fig1_check.txt").exists()


def _edited_instance(edit):
    """A valid 3-node instance document, changed by edit, written to a file."""
    def write(tmp_path):
        g = rm.Graph(node_count=3, edges=frozenset({(0, 1), (1, 2)}))
        doc = json.loads(problem_to_json(rm.generate_instance(g, n=2, r_rows=3, seed=5)))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(edit(doc)))
        return path
    return write


def _table_of(value):
    """A loss table with one value on every directed edge of base_config's graph."""
    g = build_graph(GraphSpec(**base_config()["graph"]))
    return {f"{i}->{j}": value for i, j in g.directed_edges()}


def _string_nodes(doc):
    doc["graph"]["nodes"] = "3"
    return doc


def _edited_graph(**values):
    return _edited_instance(lambda doc: dict(doc, graph=dict(doc["graph"], **values)))


def _edited_costs(edit_rows=None, edit_data=None):
    """The 3-node instance with its costs.rows and costs.data replaced by
    edit_rows(rows) and edit_data(data)."""
    def edit(doc):
        costs = doc["costs"]
        if edit_rows is not None:
            costs["rows"] = edit_rows(costs["rows"])
        if edit_data is not None:
            costs["data"] = edit_data(costs["data"])
        return doc
    return _edited_instance(edit)


def _first_schema(doc):
    """The instance as a radmm-instance/1 document: one object per cost,
    each matrix with its own shape."""
    rows, data, at = doc["costs"]["rows"], doc["costs"]["data"], 0
    costs = []
    for i, r in enumerate(rows):
        def mat(*shape):
            nonlocal at
            size = math.prod(shape)
            at += size
            return {"shape": list(shape), "data": data[at - size : at]}
        nbrs = sorted({j for e in doc["graph"]["edges"] if i in e for j in e} - {i})
        costs.append({"a_self": mat(r, 2), "a_neigh": {str(j): mat(r, 2) for j in nbrs},
                      "b": mat(r), "q": mat(r, r)})
    return dict(doc, schema="radmm-instance/1", costs=costs)


@pytest.mark.parametrize(
    "command, section, values, instance",
    [
        ("run", "run", {"runs": 0}, None),
        ("run", "run", {"k_max": 0}, None),
        ("run", "params", {"rho": -1}, None),
        ("run", "loss", {"p": 1.5}, None),
        ("run", "graph", {"nodes": 0}, None),
        ("run", "instance", {"dim": 0}, None),
        ("run", "loss", {"p": None, "table": {"0->99": 0.1}}, None),
        ("run", "run", {}, lambda tmp_path: tmp_path / "missing.json"),
        ("run", "run", {}, _nograph_instance),
        ("sweep", "sweep", {"rho": [3.0], "alpha": [0.5], "p": [0.0], "runs": 0}, None),
        ("sweep", "sweep", {"rho": [3.0], "alpha": [0.5, 1.9, 0.5], "p": [0.0]}, None),
        ("run", "graph", {"require_connected": "false"}, None),
        ("run", "run", {"runs": True}, None),
        ("run", "run", {"k_max": "7"}, None),
        ("run", "graph", {"nodes": 10.9}, None),
        ("run", "loss", {"seed": "23"}, None),
        ("run", "params", {"alpha": [True, 0.5]}, None),
        ("run", "params", {"alpha": [0.5, 0.75, 0.5]}, None),
        ("run", "params", {"rho": [3.0, 3]}, None),
        ("run", "loss", {"p": [0.2, 0.4, 0.2]}, None),
        ("run", "loss", {"p": None, "table": _table_of("0.5")}, None),
        ("run", "output", {"prefix": 3}, None),
        ("run", "run", {"k_mx": 7}, None),
        ("run", "graph", {"requre_connected": False}, None),
        ("run", "sweeps", {"runs": 2}, None),
        ("run", "run", {}, _edited_instance(lambda doc: [doc])),
        ("run", "run", {}, _edited_instance(_string_nodes)),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: [repr(v) for v in d])),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, costs=[doc["costs"]]))),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, costs=5))),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, graph=[3]))),
        ("run", "run", {}, _edited_graph(edges=5)),
        ("run", "run", {}, _edited_graph(edges=[5])),
        ("run", "run", {}, _edited_graph(edges=[[0, 1], [1, 2], [0, 1]])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: 5)),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: r[:2])),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: r + [0])),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: [True] + r[1:])),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: [3.0] + r[1:])),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: [-1, 3, 7])),
        ("run", "run", {}, _edited_costs(edit_rows=lambda r: "3")),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: [True] + d[1:])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: [10**400] + d[1:])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: d[:-1])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: d + [0.5])),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, dim=0))),
        ("run", "run", {}, _few_rows_instance),
        ("run", "run", {}, _edited_instance(_first_schema)),
        ("run", "run", {}, _edited_graph(positions=5)),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: [math.nan] + d[1:])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: d[:5] + [math.inf] + d[6:])),
        ("run", "run", {}, _edited_costs(edit_data=lambda d: d[:-1] + [-math.inf])),
        ("run", "run", {}, _edited_graph(positions=[[0.1], [0.2], [0.3]])),
        ("run", "run", {}, _edited_graph(positions=[[True, False], [1, 0], [0.5, 0.5]])),
        ("run", "run", {}, _edited_graph(positions=[[math.nan, 0.0], [0.1, 0.2], [0.3, 0.4]])),
        ("run", "run", {}, _edited_graph(positions=[[0.1, 0.2], [0.3, 0.4]])),
        ("run", "run", {}, _edited_graph(positions=[[0.1, 0.2], [0.3, 0.4], "0.5 0.6"])),
        ("run", "loss", {"seed": 2**64}, None),
        ("run", "loss", {"seed": -1}, None),
        ("check", "check", {"k_max": 0}, None),
        ("run", "run", {"tol": -1}, None),
        ("run", "run", {"tol": 0}, None),
        ("sweep", "sweep", {"rho": [3.0], "alpha": [0.5], "p": [0.0], "tol": -1}, None),
        ("check", "check", {"tol": 0}, None),
        ("generate", "graph", {"max_resamples": 0}, None),
        ("generate", "instance", {"conditioning": math.nan}, None),
        ("run", "instance", {"conditioning": math.inf}, None),
        ("run", "params", {"rho": math.inf}, None),
        ("run", "params", {"alpha": [0.5, -math.inf]}, None),
        ("run", "loss", {"p": math.nan}, None),
        ("generate", "graph", {"radius_override": math.nan}, None),
        ("run", "run", {"tol": 10**400}, None),
        ("generate", "graph", {"radius_override": 0.01, "max_resamples": 5}, None),
        # one row per node gives a rank-6 Hessian on 18 unknowns
        ("generate", "instance", {"dim": 3, "rows": 1}, None),
    ],
    ids=["runs0", "k_max0", "rho-1", "p1.5", "nodes0", "dim0", "off-graph-table",
         "missing-instance", "instance-without-graph", "sweep-runs0", "sweep-repeated-alpha",
         "require_connected-string", "runs-true", "k_max-string", "nodes-float",
         "loss-seed-string", "alpha-bool", "repeated-alpha", "repeated-rho", "repeated-p",
         "table-value-string", "prefix-number",
         "misspelt-run-key", "misspelt-graph-key", "unknown-section",
         "instance-array", "instance-nodes-string", "instance-data-strings",
         "instance-costs-list", "instance-costs-number", "instance-graph-list",
         "instance-edges-number", "instance-edge-number", "instance-edge-twice",
         "instance-data-number",
         "instance-rows-short", "instance-rows-long", "instance-rows-bool",
         "instance-rows-float", "instance-rows-negative", "instance-rows-string",
         "instance-data-bool", "instance-data-huge-int", "instance-data-short",
         "instance-data-long", "instance-dim0", "instance-rows-below-unknowns", "instance-schema-1",
         "instance-positions-number", "instance-data-nan", "instance-data-infinity",
         "instance-data-minus-infinity", "instance-positions-width-1",
         "instance-positions-bool", "instance-positions-nan", "instance-positions-short",
         "instance-positions-string", "loss-seed-2**64",
         "loss-seed-negative", "check-k_max0", "run-tol-1", "run-tol0", "sweep-tol-1",
         "check-tol0", "max_resamples0", "conditioning-nan", "conditioning-infinity",
         "rho-infinity", "alpha-minus-infinity", "p-nan", "radius_override-nan",
         "tol-huge-int", "no-connected-graph", "no-pd-instance"],
)
def test_invalid_input_exits_2_without_output(tmp_path, capsys, command, section, values, instance):
    doc = base_config()
    doc.setdefault(section, {}).update(values)
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
    if instance is not None:
        argv += ["--instance", str(instance(tmp_path))]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@cache
def _codec_document() -> dict:
    """A valid 4-node instance document with positions, 2 to 3 neighbors a node."""
    g = rm.generate_connected_rgg(4, 0.8, seed=3)
    return json.loads(problem_to_json(rm.generate_instance(g, n=2, r_rows=3, seed=5)))


def _codec_paths(doc) -> list[tuple]:
    """Where a mutation may land: the document, each of its containers and
    each key, edge, position, coordinate and row count, and three entries of
    costs.data (the rest are alike)."""
    paths, todo = [], [((), doc)]
    while todo:
        path, v = todo.pop()
        paths.append(path)
        keys = v if isinstance(v, dict) else range(len(v)) if isinstance(v, list) else ()
        if path == ("costs", "data"):
            keys = (0, 1, len(v) - 1)
        todo += [((*path, k), v[k]) for k in keys]
    return sorted(paths, key=repr)


_CODEC_VALUES = (True, False, None, "3", 10**400, math.nan, math.inf, -math.inf, 2.5, -1, 0,
                 [], {})


def _mutated(doc, edits):
    """doc after each (path, kind, value) edit that still finds its path:
    drop the entry, retype it to value, nest it in a list, or, if it is a
    non-empty list (else retype it), shorten it, repeat its first item or
    append value to it."""
    doc = deepcopy(doc)
    for path, kind, value in edits:
        if not path:
            doc = [doc] if kind == "nest" else value
            continue
        parent = doc
        try:
            for k in path[:-1]:
                parent = parent[k]
            old = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit moved it
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "nest":
            parent[path[-1]] = [old]
        elif kind == "retype" or not (isinstance(old, list) and old):
            parent[path[-1]] = value
        elif kind == "shorten":
            old.pop()
        elif kind == "repeat":  # a repeated edge, a third coordinate, an extra row
            old.append(deepcopy(old[0]))
        else:
            old.append(value)
    return doc


_codec_edit = st.tuples(st.deferred(lambda: st.sampled_from(_codec_paths(_codec_document()))),
                        st.sampled_from(("drop", "retype", "nest", "shorten", "repeat", "append")),
                        st.sampled_from(_CODEC_VALUES))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(edits=st.lists(_codec_edit, min_size=1, max_size=3))
@example(edits=[(("costs", "data", 0), "retype", 2.5)])  # ones that load
@example(edits=[(("graph", "positions", 0, 0), "retype", -1)])
@example(edits=[(("graph", "edges"), "repeat", None)])  # a repeated edge
@example(edits=[(("graph", "positions", 1), "shorten", None)])  # a point of width 1
def test_a_mutated_instance_exits_0_2_or_3_and_a_loaded_one_round_trips(edits):
    text = json.dumps(_mutated(_codec_document(), edits))
    try:
        encoded = problem_to_json(problem_from_json(text))
    except ValueError:
        encoded = None
    if encoded is not None:  # encode, decode, encode: the same bytes
        assert problem_to_json(problem_from_json(encoded)) == encoded
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        instance.write_text(text)
        doc = base_config(loss={"p": 0.2, "seed": 5}, run={"k_max": 20, "runs": 1, "tol": 1e-6})
        argv = ["run", "--config", write_config(Path(tmp), doc), "--instance", str(instance),
                "--out", str(Path(tmp) / "o")]
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED)
    assert encoded is not None or code == cli.EXIT_CONFIG
