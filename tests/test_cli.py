import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radmm as rm
import radmm.cli as cli
from radmm.config import (
    DEFAULT_TOL_LOSSLESS,
    DEFAULT_TOL_LOSSY,
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


def _python(script: str, env: dict | None = None) -> str:
    """Run script in a fresh interpreter that imports radmm from this tree;
    its last line of output."""
    src = str(Path(rm.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
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
        (["generate", "--config", cfgs[1], *out], {"core", "lossy", "experiments", "reference"}),
        (["run", "--config", cfgs[1], "--instance", str(inst), *out], {"experiments", "reference"}),
        (["run", "--config", cfgs[3], "--instance", str(inst), *out], {"reference"}),
        (["sweep", "--config", cfgs[3], "--instance", str(inst), *out], {"reference"}),
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


def test_no_radmm_module_imports_dataclasses():
    # records are plain classes: the dataclass decorator execs generated
    # source for every class it decorates, which each command would pay at
    # import (numpy, argparse and json import no dataclasses themselves)
    modules = ("cli", "config", "graph", "problem", "lossy", "core", "experiments", "reference")
    script = (
        "import sys\n"
        f"import {', '.join(f'radmm.{m}' for m in modules)}\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _python(script) == "False"


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
    sweep = {"rho": [3.0], "alpha": [0.5], "p": [0.0, 0.3]}
    for check in (base_config()["check"], None):
        doc = base_config(check=check, sweep=sweep)
        cfg = parse_config(doc)
        new = override_seeds(cfg, 123)
        assert cfg == parse_config(doc)  # the input is not mutated
        assert (new.check is None) == (check is None)
        for name, value in vars(new).items():
            old = getattr(cfg, name)
            if name in ("graph", "instance", "loss", "check") and value is not None:
                assert vars(value) == {**vars(old), "seed": 123}, name
            else:
                assert value == old, name


def test_each_section_checks_exactly_the_keys_its_spec_takes():
    for name, spec in _SECTIONS.items():
        assert list(spec.checks) == list(inspect.signature(spec).parameters), name


def test_tolerance_defaults_are_the_experiment_constants():
    assert RunSpec().resolved_tol(0.0) == DEFAULT_TOL_LOSSLESS
    assert RunSpec().resolved_tol(0.2) == DEFAULT_TOL_LOSSY
    assert SweepSpec(rho=[1.0], alpha=[0.5], p=[0.0]).tol == DEFAULT_TOL_LOSSY
    tol = inspect.signature(stability_sweep).parameters["tol"].default
    assert tol == DEFAULT_TOL_LOSSY


def _nograph_instance(tmp_path):
    path = tmp_path / "nograph.json"
    path.write_text(json.dumps({"schema": "radmm-instance/1", "dim": 2, "costs": []}))
    return path


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


def _string_data(doc):
    q = doc["costs"][0]["q"]
    q["data"] = [repr(v) for v in q["data"]]
    return doc


def _list_matrix(doc):
    doc["costs"][0]["q"] = [1.0, 2.0]
    return doc


def _edited_graph(**values):
    return _edited_instance(lambda doc: dict(doc, graph=dict(doc["graph"], **values)))


def _edited_q(**values):
    def edit(doc):
        doc["costs"][0]["q"].update(values)
        return doc
    return _edited_instance(edit)


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
        ("run", "graph", {"require_connected": "false"}, None),
        ("run", "run", {"runs": True}, None),
        ("run", "run", {"k_max": "7"}, None),
        ("run", "graph", {"nodes": 10.9}, None),
        ("run", "loss", {"seed": "23"}, None),
        ("run", "params", {"alpha": [True, 0.5]}, None),
        ("run", "loss", {"p": None, "table": _table_of("0.5")}, None),
        ("run", "output", {"prefix": 3}, None),
        ("run", "run", {"k_mx": 7}, None),
        ("run", "graph", {"requre_connected": False}, None),
        ("run", "sweeps", {"runs": 2}, None),
        ("run", "run", {}, _edited_instance(lambda doc: [doc])),
        ("run", "run", {}, _edited_instance(_string_nodes)),
        ("run", "run", {}, _edited_instance(_string_data)),
        ("run", "run", {}, _edited_instance(_list_matrix)),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, costs=5))),
        ("run", "run", {}, _edited_instance(lambda doc: dict(doc, graph=[3]))),
        ("run", "run", {}, _edited_graph(edges=5)),
        ("run", "run", {}, _edited_graph(edges=[5])),
        ("run", "run", {}, _edited_q(data=5)),
        ("run", "run", {}, _edited_q(shape="x")),
        ("run", "run", {}, _edited_graph(positions=5)),
        ("run", "loss", {"seed": 2**64}, None),
        ("run", "loss", {"seed": -1}, None),
        ("check", "check", {"k_max": 0}, None),
        ("run", "run", {"tol": -1}, None),
        ("run", "run", {"tol": 0}, None),
        ("sweep", "sweep", {"rho": [3.0], "alpha": [0.5], "p": [0.0], "tol": -1}, None),
        ("check", "check", {"tol": 0}, None),
        ("generate", "graph", {"max_resamples": 0}, None),
        ("generate", "graph", {"radius_override": 0.01, "max_resamples": 5}, None),
        # one row per node gives a rank-6 Hessian on 18 unknowns
        ("generate", "instance", {"dim": 3, "rows": 1}, None),
    ],
    ids=["runs0", "k_max0", "rho-1", "p1.5", "nodes0", "dim0", "off-graph-table",
         "missing-instance", "instance-without-graph", "sweep-runs0",
         "require_connected-string", "runs-true", "k_max-string", "nodes-float",
         "loss-seed-string", "alpha-bool", "table-value-string", "prefix-number",
         "misspelt-run-key", "misspelt-graph-key", "unknown-section",
         "instance-array", "instance-nodes-string", "instance-data-strings",
         "instance-matrix-list", "instance-costs-number", "instance-graph-list",
         "instance-edges-number", "instance-edge-number", "instance-data-number",
         "instance-shape-string", "instance-positions-number", "loss-seed-2**64",
         "loss-seed-negative", "check-k_max0", "run-tol-1", "run-tol0", "sweep-tol-1",
         "check-tol0", "max_resamples0", "no-connected-graph", "no-pd-instance"],
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
