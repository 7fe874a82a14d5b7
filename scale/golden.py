"""The SHA-256 of every result file the scale tier writes, recorded in
``tests/data/scale_golden.json``: the eight witness reductions of
``scale/test_reduce.py``, ``"events"`` counts included, its ``shape``
file, ``gp0 --tableau 0`` at genus 16, 20, 25 and 36, and
``gp0 --tableau all`` at genus 12 and 15 (``scale/test_gp0.py``), which
pins every certificate offset of those sweeps.  The scale tests compare
each file they write with its digest (``check``).

``rr-check``'s report is not recorded: it holds the trials, the genus,
the seed, the failures and ``passed``, and no rank, so its digest would
say only that every trial passed, which its test already asserts.

Rewrite the file only for an intended change of output:

    PYTHONPATH=src python -m scale.golden

It runs each command in process, through ``cli.main``, on the inputs of
the scale tests.
"""
import hashlib
import json
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "scale_golden.json"


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check(label: str, path: Path) -> None:
    """Assert that the file at ``path`` has the digest recorded for
    ``label``; a mismatch names the file and both digests."""
    recorded = json.loads(GOLDEN.read_text())[label]
    got = digest(path)
    assert got == recorded, f"{label}: {path} has SHA-256 {got}, recorded {recorded}"


def record() -> dict[str, str]:
    """The digest of each result file, by label, from runs in process."""
    from tropdiv import cli

    from .test_gp0 import ROW_FILLED, SWEEPS
    from .test_reduce import EFF3, K4, REDUCTIONS, write

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)

        def run(out: str, *args) -> str:
            if cli.main([*map(str, args), "--out", str(d / out)]) != cli.EXIT_OK:
                raise SystemExit(f"tropdiv {' '.join(map(str, args))} failed")
            return digest(d / out)

        for g in (3, 12):
            run(f"chain{g}.json", "chain-new", "--g", g)
        write(d / "k4.json", K4)
        for name, (graph, divisor, base) in REDUCTIONS.items():
            write(d / f"in-{name}.json", divisor)
            digests[f"reduce {name}"] = run("out.json", "reduce", d / f"{graph}.json",
                                            d / f"in-{name}.json", "--base", base)
        write(d / "eff3.json", EFF3)
        digests["shape eff3"] = run("out.json", "shape", d / "chain3.json", d / "eff3.json")
        for g, r, deg in ROW_FILLED:
            digests[f"gp0 --g {g} --tableau 0"] = run("out.json", "gp0", "--g", g, "--r", r,
                                                      "--d", deg, "--tableau", 0)
        for g, r, deg in SWEEPS:
            digests[f"gp0 --g {g} --tableau all"] = run("out.json", "gp0", "--g", g, "--r", r,
                                                        "--d", deg, "--tableau", "all")
    return digests


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
