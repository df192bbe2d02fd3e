"""Record bench/references.json: the numbers every benchmark command must reproduce.

    python3 bench/make_references.py

Runs each command once at seed 0 through ``diraclab.cli.main`` and keeps the
numbers the gate compares (see workloads.extract). A command must exit 0 to be
recorded. The one exception is spectrum_h, an h_a solve that does not converge
within its iteration limit: its reference is the exact lift sqrt(m^2 + eps^2)
of the smallest |eps| from a converged t_a solve on the same n=16, L=20 box,
which the grid identity H^2 = T^2 + m^2 makes the eigenvalue of H_A nearest +m.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from diraclab import cli  # noqa: E402
from diraclab.grid import Grid3D, OperatorHandle  # noqa: E402
from diraclab.potentials import LossYau  # noqa: E402
from diraclab.probe import eigs_near  # noqa: E402
from workloads import COMMANDS, command_argv, extract  # noqa: E402

SEED = 0


def lifted_h_reference(mass: float = 1.0) -> dict:
    """The H_A eigenvalue nearest +m, lifted from the t_a eigenvalues near 0.

    The next H_A eigenvalue above it is about 7.4e-5 away, so an h_a solve with
    block residual r has a Rayleigh-Ritz error up to about r^2 / 7.4e-5. To
    meet the 1e-9 gate, spectrum_h must converge to r <= 2.7e-7, tighter than
    its default resid_tol of 1e-6.
    """
    op = OperatorHandle(kind="t_a", grid=Grid3D(n=16, L=20.0), potential=LossYau())
    rep = eigs_near(op, 0.0, 3)
    if not rep.converged:
        raise SystemExit("t_a solve for the spectrum_h reference did not converge")
    eps = min(abs(e) for e in rep.eigenvalues)
    return {"eigenvalues": [math.sqrt(mass**2 + eps**2)]}


def main() -> int:
    commands = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for label in COMMANDS:
            if label == "spectrum_h":
                commands[label] = lifted_h_reference()
                continue
            out = os.path.join(tmp, f"{label}.json")
            rc = cli.main(command_argv(label, SEED, out))
            if rc != 0:
                raise SystemExit(f"{label} exited {rc}; not recording a reference")
            with open(out) as fh:
                commands[label] = extract(label, json.load(fh))
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        json.dump({"seed": SEED, "commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"references written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
