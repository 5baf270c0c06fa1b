"""Serial, order-preserving map. Only ramsey_trace uses it now, one
ramsey_population call per point; the name stays only because the
benchmark's tracer pins ``magictrap.parallel.ordered_map``."""


def ordered_map(fn, items):
    return [fn(item) for item in items]
