"""The contract between the library and the benchmark's tracer.

``bench/tracing.py`` wraps each layer under a module attribute, skips every
name that no longer resolves and reads the return values of some layers.  A
renamed attribute or a changed return shape would silently drop metrics from
the traced benchmark run, so this test installs the tracer around one small
decision per traced path and checks that every layer is recorded and every
per-layer metric of ``BENCHMARK.json`` is reported.  The tracer module is
loaded from its file and left unchanged.
"""

import importlib.util
import json
from pathlib import Path

import conjtoep.cli as cli
import conjtoep.conjugation as conjugation
import conjtoep.finite as finite
import conjtoep.polydisc as polydisc
import conjtoep.symmetry as symmetry
from conjtoep.conjugation import Composition, ThetaXi
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import BoxTruncation, PolySymbol
from conjtoep.symmetry import CheckConfig

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_decision_per_path(capsys):
    # an alpha no other test uses, so the composition cache misses
    phi = LaurentSymbol({0: 1.5})
    dense = conjugation.materialize(Composition(0.3141 + 0.2718j), 8)
    symmetry.run_all(phi, dense, CheckConfig(degree=8))
    symmetry._make_plan(phi, conjugation.materialize(ThetaXi(1.0, 0.5), 8), CheckConfig(degree=8))
    check = ["check", "--symbol", phi.to_json(), "--conj", '{"family": "canonical_j"}', "--degree", "8"]
    assert cli.main(check) == 0
    box = BoxTruncation((2, 2))
    poly = PolySymbol(2, {(1, 0): 1.0, (-1, 0): 1.0})
    polydisc.check_poly_criterion(poly, (0.0, 0.0))
    polydisc.poly_check_definition(poly, (0.0, 0.0), (0.0, 0.0), box)
    polydisc.doubly_commuting_residual(polydisc.poly_conjugation((0.0, 0.0), (0.0, 0.0), box), box)
    polydisc.poly_toeplitz(poly, box)
    t = finite.FiniteToeplitz(3, {1: 1.0, -1: 2.0})
    flip = finite.toeplitz_conjugation(3)
    finite.finite_symmetry_criterion(t, flip)
    finite.general_symmetry(t.matrix(), flip)
    finite_check = ["check-finite", "--symbol", t.to_json(), "--conj", '{"family": "toeplitz"}']
    assert cli.main(finite_check) == 0
    capsys.readouterr()


def test_tracer_records_every_layer_and_metric(capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        assert tracer.absent == set()
        tracer.install()
        tracer.rounds += 1
        try:
            _one_decision_per_path(capsys)
        finally:
            tracer.uninstall()
        recorded = {span[0] for span in tracer.spans}
        layers = {name for _, _, name, _ in tracing.LAYERS} | {name for _, _, name in tracing.CACHED_PROPERTIES}
        assert recorded == layers
        assert tracer.counters["composition.cache_misses"] >= 1
        metrics = tracer.metrics({"cli_cold": 0.0, "process_start": 0.0, "trace_overhead": 0.0})
        assert set(metrics) == PER_LAYER and len(PER_LAYER) == 51
    finally:
        tracer.close()
