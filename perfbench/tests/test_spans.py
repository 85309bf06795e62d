"""Span parent links, self time and the written trace file."""

import json

import pytest

from perfbench.spans import Span, Tracer, check_links, self_times


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_nested_spans_link_to_their_parent_and_share_the_op(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.span("request", op="r1") as root:
        with tracer.span("sar.simulate") as child:
            with tracer.span("inner") as grandchild:
                pass
        with tracer.span("serve.encode_array") as sibling:
            pass
    assert child.parent == root.id and grandchild.parent == child.id
    assert sibling.parent == root.id
    assert {s.op for s in tracer.spans} == {"r1"}
    path = tmp_path / "trace.json"
    tracer.write(path, {"nproc": 2})
    doc = json.loads(path.read_text())
    assert doc["stamp"] == {"nproc": 2}
    assert check_links(doc) == []
    events = {e["args"]["span"]: e for e in doc["traceEvents"]}
    assert events[child.id]["args"]["parent"] == root.id


def test_recorded_spans_take_explicit_parents():
    tracer = Tracer()
    root = tracer.record("serve.request", "open/1", 1.0, 2.0)
    tracer.record("loadgen.delay", "open/1", 1.0, 1.1, root)
    doc = {"spans": [vars(s) for s in tracer.spans]}
    assert check_links(doc) == []


def test_check_links_reports_broken_links():
    spans = [
        {"id": 0, "name": "a", "op": "x", "parent": None, "start": 0, "end": 1},
        {"id": 1, "name": "b", "op": "y", "parent": 0, "start": 0, "end": 1},
        {"id": 2, "name": "c", "op": "x", "parent": 9, "start": 0, "end": 1},
        {"id": 3, "name": "d", "op": "x", "parent": 0, "start": 0.5, "end": 2},
    ]
    problems = check_links({"spans": spans})
    assert len(problems) == 3


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        Span(0, "parent", "o", None, 0.0, 10.0),
        Span(1, "a", "o", 0, 1.0, 4.0),
        Span(2, "b", "o", 0, 3.0, 6.0),  # overlaps a by 1
        Span(3, "c", "o", 1, 1.0, 2.0),
    ]
    assert self_times(spans) == pytest.approx([5000.0, 2000.0, 3000.0, 1000.0])
