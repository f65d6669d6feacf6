"""The benchmark's traced run patches the program by name.

``perfbench/layers.py`` wraps methods through ``cls.__dict__`` (for
instance ``Network._deliver``, which attributes receive-side delivery
work to ``db.network``).  Renaming or removing a wrapped method would
break only the traced benchmark run; this test makes it fail here too.
"""

import pathlib

import repro

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _run():
    result = repro.simulate("2PC", mpl=2, measured_transactions=30,
                            warmup_transactions=0, seed=7)
    return result.summary()


def test_layer_table_installs_traces_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    from repro.db.network import Network

    untraced = _run()
    original = Network.__dict__["_deliver"]
    tracer = spans.Tracer(layers.LAYERS)
    patch = spans.Patch(tracer)
    try:
        layers.install(patch)
        assert Network.__dict__["_deliver"] is not original
        traced = _run()
    finally:
        patch.restore()
    assert Network.__dict__["_deliver"] is original
    # Tracing observes; it must not change the simulation.
    assert traced == untraced
    calls = tracer.call_counts()
    assert calls["Network._deliver"] > 0
    assert calls[layers.SPAWN_FN] > 0
    spent = tracer.snapshot()
    assert spent["db.network"][1] > 0 and spent["sim.resources"][1] > 0
