"""The four benchmark workloads: inputs from a seed, steps, and checks.

Each workload is a fixed, checked unit of work that a user of ``repro``
waits for.  ``inputs(seed)`` generates everything the program receives;
``steps(inputs)`` lists the calls into ``repro`` (each one is timed as
part of the unit and, in the traced run, is the root span of its
layer calls); ``check(...)`` compares every output against the paper or
against references pinned in ``reference.json`` and returns how many
outputs were checked and how many failed.

Why these four (see also ``BENCHMARK.json``):

* ``paper-repro`` -- the full reproduction users wait for; almost all of
  its time is exact ``ratfunc`` arithmetic at small n, so the large-n
  builder and the sparse solver barely run.
* ``large-n-curves`` -- the only workload dominated by ``markov.builder``,
  the scalar protocol calls it makes and ``markov.sparse``.
* ``montecarlo`` -- ``sim.vectorized`` kernels and the scalar engine; no
  chain is built.
* ``model-check`` -- restore-by-replay, snapshots, oracles and the real
  netsim handlers; no markov or vectorized code runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import figure3_series, figure4_series, theorem3_proof, theorem3_table
from repro.analysis.crossover import PAPER_CROSSOVERS
from repro.check.explorer import Explorer
from repro.check.harness import CheckConfig
from repro.check.runner import QUICK_DEPTH, quick_config
from repro.markov import availability, availability_grid, clear_symbolic_cache
from repro.markov import builder
from repro.markov.lumping import class_signature
from repro.obs.metrics import global_registry
from repro.reassignment import GroupConsensus, WitnessVotingProtocol
from repro.sim import figure1_scenario, montecarlo, paper_protocols
from repro.types import site_names

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Checked", "Workload", "load_reference"]

#: The seed whose Monte-Carlo estimates are pinned bitwise.
DEFAULT_SEED = 2026

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Absolute tolerance for pinned floating-point references.
TOLERANCE = 1e-12


def load_reference() -> dict:
    """The pinned reference outputs (written by ``make_reference.py``)."""
    return json.loads(REFERENCE_PATH.read_text())


def cold_caches() -> None:
    """Drop the chain and symbolic caches, as a fresh user process has."""
    clear_symbolic_cache()
    # The package re-exports a function named ``availability``, which
    # shadows the module of that name for attribute-style imports.
    importlib.import_module("repro.markov.availability")._chain.cache_clear()


@dataclass
class Checked:
    """Outputs checked and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


Step = tuple[str, Callable[[], object]]


class Workload:
    """Interface of a workload; see the module docstring."""

    name: str

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def steps(self, inputs: dict) -> list[Step]:
        raise NotImplementedError

    def check(
        self, outputs: dict, inputs: dict, reference: dict, checked: Checked
    ) -> None:
        raise NotImplementedError

    def work(self, outputs: dict) -> dict[str, int]:
        """Units of work one unit completes: points, events, states."""
        return {}


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOLERANCE


# ---------------------------------------------------------------------- #
# paper-repro
# ---------------------------------------------------------------------- #


class PaperRepro(Workload):
    """Theorem 3 table (n=3..20), n=5 proof, Fig. 1 replay, Figs. 3-4."""

    name = "paper-repro"

    def inputs(self, seed: int) -> dict:
        # The paper fixes these inputs, so no seed changes them.  (Merely
        # reordering the rows would move peak memory: cached chains of
        # earlier rows are still resident when n=20 is solved.)
        return {"n_values": tuple(sorted(PAPER_CROSSOVERS))}

    def steps(self, inputs: dict) -> list[Step]:
        def proof():
            result = theorem3_proof(5)
            result.verify()
            return result

        return [
            ("theorem3", lambda: theorem3_table(inputs["n_values"])),
            ("proof", proof),
            ("fig1", lambda: figure1_scenario().replay_all(paper_protocols())),
            ("fig3", figure3_series),
            ("fig4", figure4_series),
        ]

    def check(self, outputs, inputs, reference, checked) -> None:
        ref = reference[self.name]
        for row in outputs["theorem3"]:
            bracket = [str(row.crossover.low), str(row.crossover.high)]
            checked.expect(
                row.matches
                and row.crossover.verified
                and bracket == ref["theorem3"][str(row.n_sites)],
                f"theorem3 n={row.n_sites}: {bracket} matches={row.matches}",
            )
        proof = outputs["proof"]
        checked.expect(
            proof.unique and [str(b) for b in proof.bracket] == ref["proof_bracket"],
            f"proof n=5: bracket {proof.bracket} unique={proof.unique}",
        )
        for name, trace in outputs["fig1"].items():
            accepted = fig1_accepted(trace)
            checked.expect(accepted == ref["fig1"][name], f"fig1 {name}: {accepted}")
        for key in ("fig3", "fig4"):
            for protocol, values in outputs[key].curves.items():
                for i, value in enumerate(values):
                    expected = ref[key][protocol][i]
                    checked.expect(
                        _close(value, expected), f"{key} {protocol}[{i}]: {value!r}"
                    )


def fig1_accepted(trace) -> list[list[str]]:
    """Per epoch, the sorted groups a protocol accepted in the replay."""
    return [
        sorted("".join(sorted(group)) for group in result.accepted_groups())
        for result in trace.results
    ]


# ---------------------------------------------------------------------- #
# large-n-curves
# ---------------------------------------------------------------------- #

CURVE_PROTOCOLS = (
    "dynamic",
    "dynamic-linear",
    "hybrid",
    "modified-hybrid",
    "optimal-candidate",
)
CURVE_SIZES = (25, 50)
CURVE_POINTS = 60
#: Candidate ratios; each seed draws ``CURVE_POINTS`` of them.  Every
#: candidate has a pinned reference value, so any seed can be checked.
RATIO_POOL = tuple(0.05 * 400.0 ** (i / 239) for i in range(240))
WITNESS_SITES = 25
WITNESSES = 5
WITNESS_POINTS = 3
WITNESS_RATIO_POOL = tuple(0.5 * 1.25**i for i in range(12))


def witness_chain():
    """The n=25 witness-voting chain, 5 witnesses, class-lumped."""
    sites = site_names(WITNESS_SITES)
    witness_sites = sites[WITNESS_SITES - WITNESSES :]
    classes = {
        site: ("witness" if site in witness_sites else "copy") for site in sites
    }
    protocol = WitnessVotingProtocol(sites, witness_sites, GroupConsensus())
    return builder.derive_lumped_chain(
        protocol, class_signature(classes), max_blocks=200_000
    )


class LargeNCurves(Workload):
    """Cold 60-point curves at n=25 and n=50, plus the witness chain."""

    name = "large-n-curves"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(len(RATIO_POOL)), CURVE_POINTS))
        witness = sorted(rng.sample(range(len(WITNESS_RATIO_POOL)), WITNESS_POINTS))
        return {"curve_picks": picks, "witness_picks": witness}

    def steps(self, inputs: dict) -> list[Step]:
        ratios = [RATIO_POOL[i] for i in inputs["curve_picks"]]
        witness_ratios = [WITNESS_RATIO_POOL[i] for i in inputs["witness_picks"]]
        steps: list[Step] = []
        for n in CURVE_SIZES:
            for protocol in CURVE_PROTOCOLS:
                curve = functools.partial(
                    availability_grid, protocol, n, ratios, prefer_symbolic=False
                )
                steps.append((f"curve:{protocol}:{n}", curve))

        def witness():
            chain = witness_chain()
            return chain.size, [
                chain.availability(r, solver="sparse") for r in witness_ratios
            ]

        steps.append(("witness", witness))
        return steps

    def check(self, outputs, inputs, reference, checked) -> None:
        ref = reference[self.name]
        for n in CURVE_SIZES:
            for protocol in CURVE_PROTOCOLS:
                key = f"curve:{protocol}:{n}"
                expected = ref["curves"][f"{protocol}:{n}"]
                values = outputs[key]
                for pick, value in zip(inputs["curve_picks"], values, strict=True):
                    checked.expect(
                        _close(value, expected[pick]), f"{key} r#{pick}: {value!r}"
                    )
        size, values = outputs["witness"]
        checked.expect(size == ref["witness_blocks"], f"witness blocks {size}")
        for pick, value in zip(inputs["witness_picks"], values, strict=True):
            checked.expect(
                _close(value, ref["witness"][pick]), f"witness r#{pick}: {value!r}"
            )

    def work(self, outputs: dict) -> dict[str, int]:
        points = sum(
            len(v) if k.startswith("curve:") else len(v[1]) for k, v in outputs.items()
        )
        return {"points": points}


# ---------------------------------------------------------------------- #
# montecarlo
# ---------------------------------------------------------------------- #

MC_PROTOCOL = "hybrid"
MC_RATIO = 1.0
#: (n, backend, replicates, events, burn-in).  The scalar oracle runs 24
#: short replicates rather than a few long ones: its standard error comes
#: from the replicate spread, and with few replicates a 4-sigma check
#: would fail on about 1% of seeds by chance.
MC_ESTIMATES = (
    (5, "vectorized", 256, 2_000, 500),
    (9, "vectorized", 256, 2_000, 500),
    (25, "vectorized", 256, 2_000, 500),
    (5, "scalar", 24, 1_000, 250),
)
#: Acceptance band around the analytic availability, in standard errors.
MC_SIGMAS = 4.0


def mc_key(n: int, backend: str) -> str:
    return f"{backend}:{n}"


class MonteCarlo(Workload):
    """Vectorized hybrid at n=5, 9, 25 and the scalar oracle at n=5."""

    name = "montecarlo"

    def inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def steps(self, inputs: dict) -> list[Step]:
        def estimate(n, backend, replicates, events, burn_in):
            # The run's private registry (installed by the runner) also
            # receives the mc.* series, e.g. mc.vectorized.steps.
            return montecarlo.estimate_availability(
                MC_PROTOCOL,
                n,
                MC_RATIO,
                replicates=replicates,
                events=events,
                burn_in_events=burn_in,
                seed=inputs["seed"],
                workers=1,
                backend=backend,
                metrics=global_registry(),
            )

        return [
            (mc_key(n, backend), functools.partial(estimate, n, backend, *sizes))
            for n, backend, *sizes in MC_ESTIMATES
        ]

    def check(self, outputs, inputs, reference, checked) -> None:
        ref = reference[self.name]
        for n, backend, *_ in MC_ESTIMATES:
            key = mc_key(n, backend)
            result = outputs[key]
            exact = availability(MC_PROTOCOL, n, MC_RATIO)
            ok = abs(result.mean - exact) <= MC_SIGMAS * result.stderr
            if inputs["seed"] == DEFAULT_SEED:
                ok = ok and result.mean.hex() == ref["default_seed"][key]
            checked.expect(
                ok, f"{key}: {result.mean!r} +- {result.stderr!r} vs {exact!r}"
            )

    def work(self, outputs: dict) -> dict[str, int]:
        return {
            "events": sum(
                replicates * (events + burn_in)
                for _, _, replicates, events, burn_in in MC_ESTIMATES
            )
        }


# ---------------------------------------------------------------------- #
# model-check
# ---------------------------------------------------------------------- #

#: (key, config, depth): hybrid at the quick preset, and dynamic with
#: one link cut and one heal (the partitioned-network fault model).
CHECK_CONFIGS = (
    ("hybrid-quick", quick_config("hybrid"), QUICK_DEPTH),
    (
        "dynamic-cut-heal",
        CheckConfig(protocol="dynamic", n_sites=3, updates=2, link_cuts=1, link_heals=1),
        8,
    ),
)


def explore(config: CheckConfig, depth: int):
    """One exhaustive exploration (the ``repro check`` engine)."""
    return Explorer(config, depth=depth).run()


class ModelCheck(Workload):
    """Exhaustive exploration of two n=3 configurations."""

    name = "model-check"

    def inputs(self, seed: int) -> dict:
        # Exploration is exhaustive and deterministic: the seed orders
        # the configurations, and every count holds for any order.
        order = [key for key, _, _ in CHECK_CONFIGS]
        random.Random(seed).shuffle(order)
        return {"order": order}

    def steps(self, inputs: dict) -> list[Step]:
        configs = {key: (config, depth) for key, config, depth in CHECK_CONFIGS}
        return [
            (key, functools.partial(explore, *configs[key])) for key in inputs["order"]
        ]

    def check(self, outputs, inputs, reference, checked) -> None:
        ref = reference[self.name]
        for key, result in outputs.items():
            expected = ref[key]
            checked.expect(
                result.ok
                and result.states == expected["states"]
                and result.transitions == expected["transitions"],
                f"{key}: {result.to_dict()}",
            )

    def work(self, outputs: dict) -> dict[str, int]:
        return {
            key: sum(getattr(r, key) for r in outputs.values())
            for key in ("states", "transitions", "cache_pruned", "sleep_pruned")
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperRepro(), LargeNCurves(), MonteCarlo(), ModelCheck())
}
