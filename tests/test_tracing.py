"""The benchmark's trace hooks stay attached to the program.

``perfbench/tracing.py`` skips an entry point it cannot find, so that a
refactored program still runs traced; here such a skip is a failure, so
that no span or count vanishes from traced runs unnoticed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_is_installed():
    tracer = load_tracing().Tracer()
    requested, missing = [], []
    patch = tracer.patch

    def recording_patch(owner, attr, *args, **kwargs):
        before = getattr(owner, attr, None)
        patch(owner, attr, *args, **kwargs)
        requested.append(attr)
        if getattr(owner, attr, None) is before:
            missing.append(f"{owner.__name__}.{attr}")

    tracer.patch = recording_patch
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert requested
    assert missing == [], f"{len(missing)} of {len(requested)} trace hooks not installed"


def test_the_packed_cutoff_is_where_the_tracer_reads_it():
    # the tracer reads series._PACKED_CUTOFF through getattr(..., 0): were
    # it renamed, every product would count as packed and nothing would fail
    from qdissect import series

    assert isinstance(series._PACKED_CUTOFF, int) and series._PACKED_CUTOFF > 1


def test_series_counts_goes_through_the_traced_expansion(monkeypatch):
    # the tracer books the bivariate expansion on combinatorics.expand_bivariate;
    # were series_counts to inline or rename that call, the span would vanish
    from qdissect import combinatorics

    calls = []
    expand = combinatorics.expand_bivariate

    def recording(spec, precision, z_mod=None):
        calls.append((spec, precision, z_mod))
        return expand(spec, precision, z_mod=z_mod)

    monkeypatch.setattr(combinatorics, "expand_bivariate", recording)
    combinatorics.series_counts("V", 4, 20, z_mod=5)
    combinatorics.series_counts("W2", None, 20)
    assert calls == [(combinatorics.multirank_spec(4), 20, 5),
                     (combinatorics.vector_crank_spec(), 20, None)]


def test_the_suite_warm_up_goes_through_the_traced_build(monkeypatch):
    # the tracer counts theta.build.misses on the module attribute theta.build;
    # were theta.build_longest to expand through another name, the suite's
    # misses would vanish from traced runs
    from qdissect import theta, verification

    calls = []
    build = theta.build

    def recording(name, precision, param=None, modulus=None):
        calls.append((name, param, modulus, precision))
        return build(name, precision, param, modulus)

    monkeypatch.setattr(theta, "_BUILD_CACHE", {})
    monkeypatch.setattr(theta, "build", recording)
    theta.build_longest([("w", 3, None, 40), ("d", None, None, 20), ("w", 3, None, 90),
                         ("w", 3, 5, 30)])
    assert calls == [("w", 3, None, 90), ("d", None, None, 20), ("w", 3, 5, 30)]
    calls.clear()
    verification.run_suite(2000, "mod5-w5")
    assert calls == [("w", 5, 5, 505), ("w", 5, 5, 504), ("w", 5, 5, 505)]
