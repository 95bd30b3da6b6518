"""Golden digests of every CLI route: the lab's outputs pinned in tier-1.

`tests/golden.json` maps each route's argv to the sha256 of its stdout,
its --out file and its stderr (for the threshold sweep, columns 1-6 of its
CSV, since wall_time_s is measured), with its exit code.  Every route runs
through `cli.main` in this process, at small sizes.

Two checks:
- On any numpy and scipy, each route that takes --threads gives the same
  digests at 2 workers as at 1: the determinism contract.
- On the numpy and scipy versions the manifest records, every digest
  equals the recorded one.  Other versions may round a draw or a float
  differently (CI's `floors` job runs the oldest supported numpy and
  scipy, which cannot be installed offline to record), so there only the
  determinism check runs.

A change that alters an output rewrites the manifest in the same commit
and names each changed route in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from corrmatch.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

# {b30} and {b6} are the bundles the two sample routes write; {out} is a
# fresh file per route.  Order matters: the samples run first.
ROUTES = (
    "sample --n 30 --p 0.2 --s 0.8 --seed 3 --out {b30}",
    "sample --n 6 --p 0.5 --s 0.8 --seed 1 --out {b6}",
    "orbits --bundle {b30} --pi star",
    "orbits --bundle {b30} --pi random --seed 2",
    "density --bundle {b30}",
    "admissibility --bundle {b30}",
    "estimate --bundle {b30} --budget 500",
    "posterior --bundle {b6}",
    "posterior-study --n 5 --replicates 20 --seed 1",
    "tv --n 4 --replicates 200 --seed 1",
    "moments-check --replicates 2000 --seed 1",
    "rho-curve --n 300 --replicates 4 --invert-at 1.2 --threads 1 --out {out}",
    "rho-curve --n 300 --replicates 4 --invert-at 1.2 --threads 2 --out {out}",
    "threshold-sweep --n 150 --replicates 3 --lambdas 2,3,4 --threads 1 --out {out}",
    "threshold-sweep --n 150 --replicates 3 --lambdas 2,3,4 --threads 2 --out {out}",
    # no --lambdas: the grid placed around lambda_hat*, announced on stderr
    "threshold-sweep --n 150 --replicates 2 --threads 1 --out {out}",
    "threshold-sweep --n 150 --replicates 2 --threads 2 --out {out}",
)


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def run_routes(folder: Path) -> dict[str, dict]:
    """Each route's exit code and the digests of its three outputs."""
    paths = {"b30": folder / "b30.json", "b6": folder / "b6.json"}
    digests = {}
    for i, route in enumerate(ROUTES):
        argv = route.format(out=folder / f"out{i}", **paths).split()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
        if written is not None and route.startswith("threshold-sweep"):
            written = "".join(",".join(line.split(",")[:6]) + "\n" for line in written.splitlines())
        digests[route] = {
            "exit": code, "stdout": _sha(stdout.getvalue()), "out": _sha(written), "stderr": _sha(stderr.getvalue()),
        }
    return digests


def test_every_route_matches_its_golden_digest(tmp_path):
    got = run_routes(tmp_path)
    for route in ROUTES:
        if "--threads 2" in route:
            assert got[route] == got[route.replace("--threads 2", "--threads 1")], route
    manifest = json.loads(MANIFEST.read_text())
    assert list(manifest["routes"]) == list(ROUTES)
    if (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__):
        changed = [route for route in ROUTES if got[route] != manifest["routes"][route]]
        assert not changed, f"outputs differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        routes = run_routes(Path(folder))
    manifest = {"numpy": np.__version__, "scipy": scipy.__version__, "routes": routes}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
