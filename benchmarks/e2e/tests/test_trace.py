from benchmarks.e2e import trace


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a [0, 100] holds b [10, 40] and c [50, 80]; c holds d [55, 65],
    # an aggregated-only (hot) span.  The first tick is the tracer's own.
    tracer = trace.Tracer(clock=fake_clock([0, 0, 10, 40, 50, 55, 65, 80, 100]))
    hot = tracer.wrap(lambda: None, "memory.cache_access")
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            hot()

    totals = tracer.snapshot()
    assert totals["a"] == [1, 100, 40]
    assert totals["b"] == [1, 30, 30]
    assert totals["c"] == [1, 30, 20]
    assert totals["memory.cache_access"] == [1, 10, 10]
    # Self times partition the outermost span.
    assert sum(v[2] for v in totals.values()) == 100

    spans = {s[0]: s for s in tracer._spans}
    assert set(spans) == {"a", "b", "c"}  # hot spans are never stored
    a_id = spans["a"][3]
    assert spans["b"][4] == a_id and spans["c"][4] == a_id
    assert {s[5] for s in spans.values()} == {a_id}  # one request id
    assert spans["c"][7] == 20


def test_request_spans_stay_off_the_stack():
    tracer = trace.Tracer(clock=fake_clock([0, 0, 5, 25, 30]))
    with tracer.request("client.sweep"):
        with tracer.span("serve.store_get"):
            pass
    totals = tracer.snapshot()
    assert totals["client.sweep"] == [1, 30, 0]
    assert totals["serve.store_get"] == [1, 20, 20]
    spans = {s[0]: s for s in tracer._spans}
    assert spans["serve.store_get"][5] == spans["client.sweep"][3]


def test_flushed_spans_make_a_valid_chrome_trace(tmp_path):
    from repro.obs.chrome import validate_chrome_trace

    tracer = trace.Tracer(tmp_path)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.flush()
    merged = trace.load(tmp_path)
    assert merged["totals"]["outer"][0] == 1
    doc = trace.chrome_trace(merged)
    assert validate_chrome_trace(doc) == []
    assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {
        "outer",
        "inner",
    }
