"""Static SVG line plots from path/axis primitives only; no renderer
dependency. Output is deterministic for identical inputs."""
import math

from .errors import InvalidArgumentError

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
_WIDTH, _HEIGHT = 640.0, 420.0
_COLORS = ("#1f5fa8", "#c04a28", "#3a8a3f", "#7b4aa8", "#a88a1f", "#2898a8")


def _nice_ticks(lo, hi):
    raw = (hi - lo) / 5  # about five ticks per axis
    if raw == 0:  # a width of a few subnormals
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first  # tick i is first + i*step: a sum of steps rounds past hi
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        if value + step == value:  # a step below half an ulp of the ticks
            break
        value = first + len(ticks) * step
    return ticks or [lo, hi]


def _fmt(value):
    return f"{value:.6g}"


def line_plot(path, series, x_label, y_label):
    """Write an SVG plot of one or more (label, xs, ys) series. Points with
    a non-finite y are skipped; a non-finite x, or an axis whose width is 0
    or past float range, is an invalid-argument."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise InvalidArgumentError("nothing finite to plot")
    if not all(map(math.isfinite, xs_all)):
        raise InvalidArgumentError("x values to plot must be finite")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # x_lo + 1.0 is x_lo past 2**53, and a width past float range takes
    # every coordinate to nan
    if not (0 < x_hi - x_lo < math.inf and 0 < y_hi - y_lo < math.inf):
        raise InvalidArgumentError("plot axis width is 0 or past float range")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]
    # axes
    parts.append(
        f'<path d="M {px(x_lo):.2f} {py(y_lo):.2f} H {px(x_hi):.2f}" '
        f'stroke="black" fill="none"/>')
    parts.append(
        f'<path d="M {px(x_lo):.2f} {py(y_lo):.2f} V {py(y_hi):.2f}" '
        f'stroke="black" fill="none"/>')
    for tick in _nice_ticks(x_lo, x_hi):
        if tick < x_lo or tick > x_hi:
            continue
        x = px(tick)
        parts.append(f'<path d="M {x:.2f} {py(y_lo):.2f} v 5" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{py(y_lo)+18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        if tick < y_lo or tick > y_hi:
            continue
        y = py(tick)
        parts.append(f'<path d="M {px(x_lo):.2f} {y:.2f} h -5" stroke="black"/>')
        parts.append(
            f'<text x="{px(x_lo)-8:.2f}" y="{y+4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L + plot_w/2:.1f}" y="{_HEIGHT-8:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{x_label}</text>')
    parts.append(
        f'<text x="14" y="{_MARGIN_T + plot_h/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_MARGIN_T + plot_h/2:.1f})">{y_label}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(
            f"{'M' if j == 0 else 'L'} {px(x):.2f} {py(y):.2f}"
            for j, (x, y) in enumerate(zip(xs, ys)) if math.isfinite(y))
        parts.append(f'<path d="{points}" stroke="{color}" fill="none" '
                     f'stroke-width="1.5"/>')
        if label:
            y_leg = _MARGIN_T + 14 + 16 * i
            x_leg = _WIDTH - _MARGIN_R - 150
            parts.append(f'<path d="M {x_leg:.1f} {y_leg - 4:.1f} h 18" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{x_leg + 24:.1f}" y="{y_leg:.1f}" '
                f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
