"""Serial, order-preserving map for grid sweeps; the name stays only because
the benchmark's tracer pins ``magictrap.parallel.ordered_map``."""


def ordered_map(fn, items):
    return [fn(item) for item in items]
