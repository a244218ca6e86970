"""Output lock: small fixed CLI commands must write the same files byte for byte.

``golden/outputs.json`` maps each command's name to the sha256 of every file it
writes, by path relative to its output directory. A change that claims "same
outputs" leaves the file byte-identical. Regenerate it only for an intended
output change, and say so in the change log:

    PYTHONPATH=src python tests/test_outputs.py

Before it overwrites the file, the script prints which files change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ordclust import cli

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
BENCH_SUITE = "name,data,schema,k\nAC,fixture:AC,,2\n"
COMMANDS = {  # name -> argv; "{out}" is the command's output directory
    "fit": ["fit", "--data", "fixture:HR", "--k", "3", "--runs", "3", "--out", "{out}",
            "--export-orders", "--export-trace", "--export-distances"],
    "fit_mixed": ["fit", "--data", "fixture:AC", "--k", "2", "--runs", "2", "--mixed", "--out", "{out}",
                  "--export-trace", "--export-orders"],
    "fit_degenerate": ["fit", "--data", "fixture:SB", "--k", "4", "--runs", "2", "--out", "{out}"],
    "ablate": ["ablate", "--data", "fixture:HR", "--k", "3", "--runs", "3", "--out", "{out}"],
    "bench": ["bench", "--suite", "{out}/suite.csv", "--methods", ",".join(cli.METHODS), "--runs", "2",
              "--out", "{out}"],
    "demo_orders": ["demo-orders", "--data", "fixture:HR", "--k", "3", "--wo-seeds", "3", "--so-seeds", "3",
                    "--ro-draws", "10", "--overlay-seeds", "3", "--out", "{out}"],
    "export_distances": ["export-distances", "--data", "fixture:DS", "--k", "2",
                         "--out-file", "{out}/distances.csv"],
}


def compute(root: Path) -> dict:
    """Run every command under ``root`` and digest the files each one writes."""
    out = {}
    for name, argv in COMMANDS.items():
        outdir = root / name
        outdir.mkdir()
        if name == "bench":
            (outdir / "suite.csv").write_text(BENCH_SUITE)
        code = cli.main([arg.replace("{out}", str(outdir)) for arg in argv])
        assert code == cli.EXIT_OK, f"{name} exited {code}"
        out[name] = {path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in sorted(outdir.rglob("*")) if path.is_file() and path.name != "suite.csv"}
    return out


def dumps(digests: dict) -> str:
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


def changed_files(old: dict, new: dict) -> list[str]:
    """``command/file`` for every file whose digest differs, is new or is gone."""
    keys = {(cmd, path) for side in (old, new) for cmd, files in side.items() for path in files}
    return [f"{cmd}/{path}" for cmd, path in sorted(keys)
            if old.get(cmd, {}).get(path) != new.get(cmd, {}).get(path)]


def test_changed_files_names_new_gone_and_different():
    old = {"fit": {"a": "1", "b": "2"}, "gone": {"c": "3"}}
    new = {"fit": {"a": "1", "b": "9", "d": "4"}}
    assert changed_files(old, new) == ["fit/b", "fit/d", "gone/c"]


def test_outputs_unchanged(tmp_path):
    got = compute(tmp_path)
    changed = changed_files(json.loads(GOLDEN.read_text()), got)
    assert not changed, f"{len(changed)} output files changed: {changed}"
    assert dumps(got) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = compute(Path(tmp))
    if GOLDEN.exists():
        changed = changed_files(json.loads(GOLDEN.read_text()), got)
        print(f"{len(changed)} output files change", file=sys.stderr)
        for key in changed:
            print(f"  {key}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(got))
    print(f"wrote {GOLDEN}", file=sys.stderr)
