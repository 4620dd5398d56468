import types

import pytest

from perfbench.spans import Probe, Span, Tracer, self_times


def span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_subtracts_child_coverage_once():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),  # overlaps span 1: 1..6 covered once
        span(3, 2.0, 3.0, parent=1),  # grandchild: not subtracted from span 0
    ]
    selft = self_times(spans)
    assert selft[0] == pytest.approx(5.0)
    assert selft[1] == pytest.approx(2.0)
    assert selft[2] == pytest.approx(3.0)
    assert selft[3] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, 0.0, 2.0), span(1, 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_probes_record_nesting_and_are_removed_afterwards():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.run = 3
    seen = []
    probes = [
        Probe(mod, "gone", "gone"),  # no such function: skipped
        Probe(mod, "outer", "outer"),
        Probe(mod, "inner", "inner", lambda attrs, args, result: attrs.update(out=result)),
    ]
    with tracer.probing(probes):
        assert mod.outer(1) == 4
        seen.append(mod.inner is inner)
    assert seen == [False]
    assert mod.inner is inner and mod.outer is outer and not hasattr(mod, "gone")
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.run) == ("outer", None, 3)
    assert (inner_span.name, inner_span.parent) == ("inner", outer_span.id)
    assert inner_span.attrs == {"out": 2}
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
