import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "scripts" / "bench.py"
NUMBER = (int, float)


def test_quick_bench_writes_every_section(tmp_path):
    out = tmp_path / "not" / "yet"  # --out makes the directory
    done = subprocess.run(
        [sys.executable, str(BENCH), "--label", "smoke", "--quick", "--out", str(out),
         "--against", str(ROOT)],  # this checkout against itself
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads((out / "BENCH_smoke.json").read_text())
    assert set(doc) == {
        "schema", "label", "quick", "machine", "import_ms", "modules", "run_stages",
        "peak_rss_mb", "engine", "presets_s", "tier1_s", "perfbench", "against",
    }
    assert (doc["schema"], doc["label"], doc["quick"]) == ("radmm-bench/1", "smoke", True)
    machine = {"nproc", "python", "numpy", "blas", "blas_core", "blas_threads", "writes_bytecode"}
    assert machine <= set(doc["machine"])
    assert doc["machine"]["blas_core"] is None or isinstance(doc["machine"]["blas_core"], str)
    assert {"radmm.core", "radmm.cli", "total"} <= set(doc["import_ms"])
    assert all(isinstance(v, NUMBER) and v >= 0 for v in doc["import_ms"].values())
    # which modules each command loads is test_cli's to check; here the shape
    loaded = doc["modules"]
    assert set(loaded) == {"generate", "run (runs = 1)", "run (runs > 1)", "sweep", "check"}
    assert all("radmm.cli" in mods and "radmm.problem" in mods for mods in loaded.values())
    stages = doc["run_stages"]
    assert set(stages) == {"load_ms", "engine_setup_ms", "rounds_ms", "rounds",
                           "load_peak_kib", "instance_bytes"}
    assert all(isinstance(v, NUMBER) and v > 0 for v in stages.values())
    # each workload's cold `radmm run`: more than a bare interpreter, which
    # holds no numpy
    assert set(doc["peak_rss_mb"]) == {"mc_fig1", "large_graph"}
    assert all(isinstance(v, NUMBER) and v > 15 for v in doc["peak_rss_mb"].values())
    # the quick run skips N = 1000, the presets and Tier-1
    assert [point["nodes"] for point in doc["engine"]] == [10, 100]
    for point in doc["engine"]:
        assert all(isinstance(v, NUMBER) and v > 0 for v in point.values())
        assert {"run_round_us_1", "run_round_us_16", "run_peak_kib_1", "run_peak_kib_16",
                "engine_setup_ms"} <= set(point)
    assert doc["presets_s"] is None and doc["tier1_s"] is None
    assert list(doc["perfbench"]) == ["mc_fig1"]
    traced = doc["perfbench"]["mc_fig1"]
    assert traced["correct"] is True
    assert isinstance(traced["metrics"]["core.run_round_us"], NUMBER)
    # one pair in quick mode; both trees here are this checkout
    paired = doc["against"]
    assert set(paired) == {"pairs", "run_stages", "import_ms", "peak_rss_mb"}
    assert paired["pairs"] == 1
    assert set(paired["run_stages"]) == set(stages)
    assert {"radmm.problem", "total"} <= set(paired["import_ms"])
    assert set(paired["peak_rss_mb"]) == set(doc["peak_rss_mb"])
    for section in ("run_stages", "import_ms", "peak_rss_mb"):
        for number in paired[section].values():
            assert set(number) == {"against", "this", "wins", "ratio"}
            assert number["wins"] in (0, 1)
            for tree in ("against", "this", "ratio"):
                q = number[tree]
                if tree == "ratio" and number["against"]["median"] == 0:
                    assert q is None  # no pair to divide by
                    continue
                assert set(q) == {"median", "q1", "q3"} and q["q1"] == q["median"] == q["q3"]
            if number["ratio"] is not None:
                this, theirs = number["this"]["median"], number["against"]["median"]
                assert number["ratio"]["median"] == this / theirs
    rounds = paired["run_stages"]["rounds"]
    assert rounds["against"] == rounds["this"] and rounds["ratio"]["median"] == 1.0


def test_against_without_a_checkout_fails_before_measuring(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH), "--label", "x", "--quick", "--out", str(tmp_path),
         "--against", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--against" in done.stderr and "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_out_that_cannot_be_made_fails_before_measuring(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = subprocess.run(
        [sys.executable, str(BENCH), "--label", "x", "--quick", "--out", str(blocker / "sub")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--out" in done.stderr and "Traceback" not in done.stderr
