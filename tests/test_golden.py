"""Byte-identity of `flow` output against stored digests.

Each case is one short `flow` call.  The sha256 of its stdout and of every
file it writes is stored in ``golden_flow_sha256.json``; a change to the
flow evaluator, the Euler closed form or the serialisers that moves a
single output byte fails here.  The digests were taken from the code
before the per-trajectory flow sampler replaced the per-sample matrix
exponential.  Print the digests of the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from shadowosc.cli import main

GOLDEN = Path(__file__).with_name("golden_flow_sha256.json")

FLOW_CASES = {
    "velocity-verlet-i-a": ["--integrator", "velocity-verlet", "--tau", "0.66",
                            "--t-end", "4", "--dt", "0.01"],
    "velocity-verlet-i-c": ["--integrator", "velocity-verlet", "--tau", "3",
                            "--t-end", "9", "--dt", "0.05", "--q0", "0.5", "--p0", "-0.25"],
    "double-euler-iii-a": ["--integrator", "double-euler", "--tau", "4",
                           "--t-end", "8", "--dt", "0.05"],
    "double-euler-ii-minus": ["--integrator", "double-euler", "--tau", "2.8284271247461903",
                              "--t-end", "6", "--dt", "0.05"],
    "double-euler-i-b": ["--integrator", "double-euler", "--tau", "4.8",
                         "--t-end", "9.6", "--dt", "0.05", "--m-min", "-2", "--m-max", "1"],
    "identity-real-rotation": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
                               "--params", "real-rotation", "--t-end", "2", "--dt", "0.02"],
    "identity-hyperbolic": ["--integrator", "custom", "--r", "1,0,0,1", "--tau", "1",
                            "--params", "hyperbolic", "--t-end", "2", "--dt", "0.02"],
    "minus-identity-real-rotation": ["--integrator", "custom", "--r=-1,0,0,-1",
                                     "--tau", "1", "--params", "real-rotation",
                                     "--t-end", "2", "--dt", "0.02"],
    "minus-identity-hyperbolic": ["--integrator", "custom", "--r=-1,0,0,-1",
                                  "--tau", "1", "--params", "hyperbolic",
                                  "--t-end", "2", "--dt", "0.02"],
    "shear-iii-a": ["--integrator", "custom", "--r", "1,1,0,1", "--tau", "1",
                    "--t-end", "3", "--dt", "0.02", "--q0", "-0.5", "--p0", "1"],
    "vp-tau-5": ["--integrator", "vp", "--tau", "5", "--t-end", "10", "--dt", "0.05"],
    "euler-i-a": ["--integrator", "euler", "--tau", "0.66", "--m-min", "-2", "--m-max", "2",
                  "--t-end", "3.96", "--dt", "0.01"],
    "euler-i-c": ["--integrator", "euler", "--tau", "3", "--t-end", "9", "--dt", "0.05",
                  "--q0", "0.3", "--p0", "-1.1"],
    "euler-iii-b": ["--integrator", "euler", "--tau", "2", "--t-end", "6"],
    "velocity-verlet-i-c-json": ["--integrator", "velocity-verlet", "--tau", "3",
                                 "--t-end", "6", "--dt", "0.1", "--format", "json"],
}


def flow_digests(workdir: Path, flags: list[str]) -> dict:
    """Run one `flow` call into ``workdir/out``; sha256 of stdout and each file."""
    out = workdir / "out"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["flow", *flags, "--out", str(out)])
    assert code == 0
    text = stdout.getvalue().replace(str(workdir), "<dir>")
    return {
        "stdout": hashlib.sha256(text.encode()).hexdigest(),
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())},
    }


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FLOW_CASES)


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_flow_output_is_byte_identical(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())[case]
    assert flow_digests(tmp_path, FLOW_CASES[case]) == golden


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name, flags in FLOW_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = flow_digests(Path(tmp), flags)
    print(json.dumps(digests, indent=1, sort_keys=True))
