"""The benchmark's tracer (perfbench/tracing.py) patches solver functions
and ``OpenList`` methods by name.  Installing it must find every name,
a traced solve must run through the patched names, and uninstalling it
must put every original object back."""

import importlib
import pathlib

from hybridpath import generators, labeling
from conftest import FUEL_TRAP_COST, make_fuel_trap

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(owner, attr) for owner, attr, *_ in
               tracing._SPANS + tracing._HOT]
    originals = [owner.__dict__[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(targets, originals))
        tracer.begin_round(0)
        for selection in ("label", "node"):
            res = labeling.solve(make_fuel_trap(),
                                 labeling.SolverConfig(selection=selection))
            assert res.solution.cost == FUEL_TRAP_COST
        tracer.end_round()
    finally:
        tracer.uninstall()

    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in zip(targets, originals))
    metrics = tracer.layer_metrics(0)
    assert metrics["labeling.insert_calls"] > 0
    assert metrics["labeling.labels_created"] == 2 * 8


def test_traced_generate_times_its_sup_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_round(0)
        inst = generators.generate(generators.GenSpec(n_nodes=60, seed=1))
        tracer.end_round()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0)
    assert metrics["heuristics.sup_path_s"] > 0
    assert metrics["heuristics.dijkstra_calls"] == (
        inst.meta["discarded_draws"] + 1)
