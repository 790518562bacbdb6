"""scripts/reproduce_figures.py: the manifest records the mask contract and
each preset's command and CSV digests, and the claims pass reads the paper's
claims off the committed CSVs."""

import copy
import csv
import importlib.util
import json
import shutil
from pathlib import Path

import radmm as rm

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_manifest() -> dict:
    return json.loads((ROOT / "out" / "figures" / "MANIFEST.json").read_text())


def test_committed_manifest_records_the_mask_contract():
    assert committed_manifest()["mask_contract"] == rm.MASK_CONTRACT


def test_check_reports_another_mask_contract():
    fig = load_script()
    fresh = {"radmm_version": rm.__version__, "mask_contract": rm.MASK_CONTRACT, "presets": {}}
    assert fig.mismatches(fresh, dict(fresh), "regenerated") == []
    older = dict(fresh, mask_contract=rm.MASK_CONTRACT - 1)
    assert fig.mismatches(older, fresh, "regenerated") == [
        f"regenerated: mask_contract {rm.MASK_CONTRACT} != {rm.MASK_CONTRACT - 1}"
    ]
    unversioned = {k: v for k, v in fresh.items() if k != "mask_contract"}
    assert len(fig.mismatches(unversioned, fresh, "regenerated")) == 1


def test_check_reports_another_command_or_csv_digest():
    manifest = committed_manifest()
    # every preset runs at its own run count, so the manifest records none
    assert all(set(entry) == {"command", "files"} for entry in manifest["presets"].values())
    fig = load_script()
    assert fig.mismatches(manifest, manifest, "regenerated") == []
    name = sorted(manifest["presets"]["fig1"]["files"])[0]
    changed = copy.deepcopy(manifest)
    changed["presets"]["fig1"]["command"] = "sweep"
    changed["presets"]["fig1"]["files"][name] = "0" * 64
    assert fig.mismatches(manifest, changed, "regenerated") == [
        "regenerated: fig1 command sweep != run",
        f"regenerated: fig1/{name} differs from the manifest",
    ]


def figure_copy(tmp_path) -> Path:
    shutil.copytree(ROOT / "out" / "figures", tmp_path / "figures")
    return tmp_path / "figures"


def edit_sweep(figdir: Path, edit) -> None:
    """Rewrite figdir's fig2 CSV with edit applied to its list of rows."""
    path = figdir / "fig2" / "fig2_sweep.csv"
    with path.open(newline="") as f:
        reader = csv.DictReader(f)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def verdicts(lines: list[str]) -> dict[str, str]:
    """PASS or FAIL per asserted claim's name."""
    asserted = [line for line in lines if not line.startswith("REPORT")]
    return dict(reversed(line.split(":", 1)[0].split(" ", 1)) for line in asserted)


CLAIMS = ("robustness", "loss slows convergence (fig2 medians)",
          "loss slows convergence (fig1 rate)")


def test_committed_figures_hold_the_papers_claims():
    lines = load_script().claims()
    assert verdicts(lines) == dict.fromkeys(CLAIMS, "PASS")
    assert lines[0].startswith("PASS robustness: 108 of 108 ")
    assert lines[1].startswith("PASS loss slows convergence (fig2 medians): 36 of 36 ")
    assert lines[2].endswith("0.0: 0.817, 0.2: 0.843, 0.4: 0.881, 0.6: 0.912")
    assert [line.split(":", 1)[0] for line in lines[3:]] == [
        "REPORT fig2 alpha = 1", "REPORT fig3 fastest-decaying alpha"]


def test_a_diverged_stable_cell_fails_the_robustness_claim(tmp_path):
    figdir = figure_copy(tmp_path)

    def flip(rows):
        (cell,) = [r for r in rows if (r["rho"], r["alpha"], r["p"]) == ("3.0", "0.5", "0.2")]
        cell["outcome"] = "diverged"

    edit_sweep(figdir, flip)
    lines = load_script().claims(figdir)
    assert verdicts(lines) == dict.fromkeys(CLAIMS, "PASS") | {"robustness": "FAIL"}
    assert lines[0].startswith("FAIL robustness: 107 of 108 ")


def test_swapped_medians_fail_the_ordering_claim(tmp_path):
    figdir = figure_copy(tmp_path)

    def swap(rows):
        first, last = (next(r for r in rows if (r["rho"], r["alpha"], r["p"]) == ("3.0", "0.5", p))
                       for p in ("0.0", "0.4"))
        first["converged_at_median"], last["converged_at_median"] = (
            last["converged_at_median"], first["converged_at_median"])

    edit_sweep(figdir, swap)
    lines = load_script().claims(figdir)
    name = "loss slows convergence (fig2 medians)"
    assert verdicts(lines) == dict.fromkeys(CLAIMS, "PASS") | {name: "FAIL"}
    assert lines[1].startswith(f"FAIL {name}: 35 of 36 ")
