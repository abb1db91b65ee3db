"""Regenerate ``reference.json``, the outputs the benchmark checks against.

Run from the repository root, only when the program's outputs are meant
to change (the references pin today's values):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

The large-n references cover every candidate ratio of the pools in
``workloads.py``, so a run on any seed can be checked.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build() -> dict:
    import workloads as w
    from repro.markov import availability_grid

    paper = w.PaperRepro()
    outputs = {name: step() for name, step in paper.steps(paper.inputs(w.DEFAULT_SEED))}
    reference: dict = {
        paper.name: {
            "theorem3": {
                str(row.n_sites): [str(row.crossover.low), str(row.crossover.high)]
                for row in sorted(outputs["theorem3"], key=lambda r: r.n_sites)
            },
            "proof_bracket": [str(b) for b in outputs["proof"].bracket],
            "fig1": {
                name: w.fig1_accepted(trace) for name, trace in outputs["fig1"].items()
            },
            "fig3": {k: list(v) for k, v in outputs["fig3"].curves.items()},
            "fig4": {k: list(v) for k, v in outputs["fig4"].curves.items()},
        }
    }

    w.cold_caches()
    chain = w.witness_chain()
    reference[w.LargeNCurves.name] = {
        "curves": {
            f"{protocol}:{n}": list(
                availability_grid(protocol, n, w.RATIO_POOL, prefer_symbolic=False)
            )
            for n in w.CURVE_SIZES
            for protocol in w.CURVE_PROTOCOLS
        },
        "witness_blocks": chain.size,
        "witness": [
            chain.availability(r, solver="sparse") for r in w.WITNESS_RATIO_POOL
        ],
    }

    mc = w.MonteCarlo()
    outputs = {name: step() for name, step in mc.steps(mc.inputs(w.DEFAULT_SEED))}
    reference[mc.name] = {
        "default_seed": {key: result.mean.hex() for key, result in outputs.items()}
    }

    check = w.ModelCheck()
    outputs = {name: step() for name, step in check.steps(check.inputs(w.DEFAULT_SEED))}
    reference[check.name] = {
        key: {"states": result.states, "transitions": result.transitions}
        for key, result in sorted(outputs.items())
    }
    return reference


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workloads.REFERENCE_PATH.write_text(json.dumps(build(), indent=1) + "\n")


if __name__ == "__main__":
    main()
