#!/usr/bin/env python3
"""Run the four bundled figure presets and drop their CSVs under out/figures/.

fig1/fig3/fig4 are Monte Carlo error traces (vs loss probability, step size,
and penalty respectively); fig2 is the stability-boundary sweep. Each preset
runs as `python -m radmm.cli`, the process entry a user's `radmm` command
takes, in a fresh interpreter that imports this radmm. The full presets take
a few seconds on one core.

Each regeneration also writes out/figures/MANIFEST.json: the radmm version,
the loss-mask contract version (`radmm.MASK_CONTRACT`), and per preset its
command and the sha256 of every CSV. With --check nothing under out/ is
written: the presets run again into a temporary directory, and the script
exits 1 unless that output and the committed CSVs both match the manifest.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import radmm

FIGDIR = Path(__file__).resolve().parent.parent / "out" / "figures"
MANIFEST = FIGDIR / "MANIFEST.json"
PRESETS = [("fig1", "run"), ("fig2", "sweep"), ("fig3", "run"), ("fig4", "run")]
# the preset commands import the radmm this script imported
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(radmm.__file__).resolve().parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
))


def run_preset(name: str, command: str, out: Path) -> int:
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "radmm.cli", command, "--preset", name, "--out", str(out)]
    rc = subprocess.run(argv, env=ENV).returncode
    print(f"{name}: exit {rc} in {time.perf_counter() - t0:.1f}s", flush=True)
    return rc


def digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.glob("*.csv"))}


def regenerate(root: Path) -> tuple[int, dict]:
    """Run every preset into root/<name>; the worst exit code and the manifest."""
    worst = 0
    presets = {}
    for name, command in PRESETS:
        worst = max(worst, run_preset(name, command, root / name))
        presets[name] = {"command": command, "files": digests(root / name)}
    return worst, {
        "radmm_version": radmm.__version__,
        "mask_contract": radmm.MASK_CONTRACT,
        "presets": presets,
    }


def mismatches(want: dict, got: dict, what: str) -> list[str]:
    out = []
    for key in ("radmm_version", "mask_contract"):
        if got.get(key) != want.get(key):
            out.append(f"{what}: {key} {got.get(key)} != {want.get(key)}")
    for name in sorted(set(want["presets"]) | set(got["presets"])):
        w, g = want["presets"].get(name), got["presets"].get(name)
        if w is None or g is None:
            out.append(f"{what}: preset {name} only in {'the manifest' if g is None else what}")
            continue
        if w["command"] != g["command"]:
            out.append(f"{what}: {name} command {g['command']} != {w['command']}")
        for f in sorted(set(w["files"]) | set(g["files"])):
            if w["files"].get(f) != g["files"].get(f):
                out.append(f"{what}: {name}/{f} differs from the manifest")
    return out


def check() -> int:
    want = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        rc, fresh = regenerate(Path(tmp))
    committed = {
        "radmm_version": want["radmm_version"],
        "mask_contract": want.get("mask_contract"),
        "presets": {
            name: dict(entry, files=digests(FIGDIR / name)) for name, entry in want["presets"].items()
        },
    }
    bad = mismatches(want, fresh, "regenerated") + mismatches(want, committed, "committed")
    for line in bad:
        print(line)
    print("figures match the manifest" if not bad else f"{len(bad)} mismatches")
    return 1 if bad or rc else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and compare with the manifest")
    args = parser.parse_args()
    if args.check:
        return check()
    rc, manifest = regenerate(FIGDIR)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
