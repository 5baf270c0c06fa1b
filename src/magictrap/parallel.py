"""Serial, order-preserving map. Only ramsey_trace uses it now: after one
batched _integrals pass over all its times, it maps ramsey_population over
the points for the carrier and the clip alone. The name stays only because
the benchmark's tracer pins ``magictrap.parallel.ordered_map`` and one
``ramsey_population`` span per point under it."""


def ordered_map(fn, items):
    return [fn(item) for item in items]
