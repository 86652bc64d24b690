"""habitopt benchmark: closed-loop CLI workloads, one client, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Workloads: ``ladder``, ``verify_small``, ``sweep_closed``, ``oracle_small``
(see ``workloads.py`` and ``BASELINE.md``).  Each command is
``habitopt.cli.main(argv)`` run in-process, starting after the previous one
finished; a run repeats its command list until ``--seconds`` have passed.
Instances come from ``habitopt generate`` with seeds derived from ``--seed``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass over the same commands, requires their outputs
to match byte for byte, and reports per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines carry the environment, per-rung
figures and the failing commands.  Records and spans are written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _single_threaded() -> int:
    """One BLAS thread, habitopt's own thread pool off.

    The matrices here are at most ~1000 x 1000, where a second BLAS thread buys
    little; with two threads on two cores, any other busy process makes
    OpenBLAS's spinning threads run several times slower.
    """
    os.environ.pop("HABITOPT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "habitopt" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no habitopt sources under {SRC}\n")
        return 2
    blas_threads = _single_threaded()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from bench import run_workload   # imports numpy and habitopt after the caps

    return run_workload(args, ROOT, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
