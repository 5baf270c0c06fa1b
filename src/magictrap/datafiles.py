"""File formats: flat key-value coefficient files, CSV tables, and the JSON
transfer-timeline document. All numeric output carries at least 9
significant digits so downstream comparisons have headroom.
"""
import csv
import json
import math

from .dls import TrapCoefficients, hz_from_kelvin
from .errors import InvalidArgumentError
from .fitting import make_dls_dataset
from .ramsey import TrapFieldConfig
from .transfer import Phase, TransferSegment, TransferTimeline

CSV_FLOAT_FORMAT = "%.12g"


def format_value(value, precision):
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def write_keyvalue(stream, pairs, precision):
    for key, value in pairs:
        stream.write(f"{key} = {format_value(value, precision)}\n")


def depth_hz_from_mk(depth_mk: float) -> float:
    """CLI/file convention: depths are entered positive in mK and stored as
    negative frequencies."""
    if not math.isfinite(depth_mk):
        raise InvalidArgumentError(
            f"trap depth must be finite, got {depth_mk} mK")
    if depth_mk < 0:
        raise InvalidArgumentError("enter trap depths as positive mK values")
    try:
        return -hz_from_kelvin(depth_mk * 1e-3)
    except InvalidArgumentError:  # named as a depth, not a temperature
        raise InvalidArgumentError(
            f"trap depth {depth_mk} mK is past float range in Hz") from None


def mk_from_depth_hz(depth_hz: float) -> float:
    """-U in mK: a trap depth U <= 0 Hz reads positive, a vertex above zero
    (no trap) negative; 0.0 - U is -U exactly, but +0.0 for U = +0.0."""
    if not math.isfinite(depth_hz):
        raise InvalidArgumentError(f"trap depth must be finite, got {depth_hz} Hz")
    return (0.0 - depth_hz) / hz_from_kelvin(1e-3)


def _read_text(path):
    """The file as UTF-8 text; undecodable bytes are an invalid-argument."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_coefficients(path) -> TrapCoefficients:
    """Parse a flat key-value coefficients file (TOML-style `key = value`
    lines; `#` comments). Keys other than the three coefficients are
    ignored; a key given twice raises invalid-argument."""
    values = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, raw = stripped.partition("=")
        key = key.strip()
        if not equals:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
        if key in values:
            raise InvalidArgumentError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            values[key] = float(raw.strip())
        except ValueError as exc:
            raise InvalidArgumentError(
                f"{path}:{lineno}: not a number: {raw.strip()!r}") from exc
    try:
        return TrapCoefficients(
            beta1=values["beta1"],
            beta2=values["beta2_per_gauss"],
            beta4=values["beta4_per_hz"],
        )
    except KeyError as exc:
        raise InvalidArgumentError(
            f"{path}: missing coefficient key {exc.args[0]!r}") from exc


def write_coefficients(path, coeffs: TrapCoefficients):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"beta1 = {coeffs.beta1!r}\n")
        fh.write(f"beta2_per_gauss = {coeffs.beta2!r}\n")
        fh.write(f"beta4_per_hz = {coeffs.beta4!r}\n")


def write_table(path, header, rows):
    """CSV with a header row; one record per sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([CSV_FLOAT_FORMAT % v if isinstance(v, float) else v
                             for v in row])


def budget_table(report):
    """(header, rows) of a coherence budget for write_table, one row per
    transfer segment."""
    return (("phase", "duration_s", "t2_used_s", "t2_model_s",
             "amplitude_factor", "used_override"),
            [(e.phase.value, e.duration_s, e.t2_used_s, e.t2_model_s,
              e.amplitude_factor, int(e.used_override))
             for e in report.per_segment])


def _read_table(path, required, maximum):
    """Rows of a CSV table as float tuples as wide as its header row, clamped
    to required..maximum; a shorter non-blank row raises invalid-argument."""
    text = _read_text(path)
    if not text:
        raise InvalidArgumentError(f"{path}: empty file")
    reader = csv.reader(text.split("\n"))
    width = min(max(len(next(reader)), required), maximum)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < width:
            raise InvalidArgumentError(f"{path}:{lineno}: expected >= {width} columns")
        try:
            rows.append(tuple(float(cell) for cell in row[:width]))
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: non-numeric cell") from exc
    return rows


def read_dls_csv(path):
    """Read `b_field_gauss, depth_mk, dls_hz[, sigma_hz]` and group rows
    into per-field datasets. Depths are converted to signed Hz."""
    grouped = {}
    for row in _read_table(path, 3, 4):
        grouped.setdefault(row[0], []).append(row)
    datasets = []
    for b_field in sorted(grouped):
        _, depths_mk, shifts, *sigmas = zip(*grouped[b_field])
        datasets.append(make_dls_dataset(
            b_field, [depth_hz_from_mk(d) for d in depths_mk], shifts, *sigmas))
    return datasets


def read_ramsey_csv(path):
    """Read `t_s, p[, sigma]` sample rows."""
    return _read_table(path, 2, 3)


def write_timeline(path, tl: TransferTimeline):
    """Write the JSON timeline document that read_timeline reads. The
    coefficients are not part of it; write_coefficients stores them."""
    segments = []
    for seg in tl.segments:
        entry = {"phase": seg.phase.value, "duration_s": seg.duration_s,
                 "depth_mk": mk_from_depth_hz(seg.config.mean_depth_hz),
                 "temperature_uk": seg.config.temperature_k * 1e6,
                 "b_field_gauss": seg.config.b_field_gauss}
        if seg.t2_override_s is not None:
            entry["t2_override_s"] = seg.t2_override_s
        segments.append(entry)
    doc = {"t1_s": tl.t1_s, "t2prime_s": tl.t2prime_s, "segments": segments}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_timeline(path, coeffs: TrapCoefficients):
    """Read the JSON timeline document: t1_s, t2prime_s, and an ordered
    array of segments with phase, duration_s, depth_mk, temperature_uk,
    b_field_gauss, and optional t2_override_s. A missing key, a bad value
    or a value of the wrong JSON type (a null number, a list for the
    document) raises invalid-argument naming the file. A timeline off the
    transfer grammar, or with a negative or non-finite duration, raises the
    TimelineError (invalid-timeline) of the TransferTimeline it builds."""
    try:
        doc = json.loads(_read_text(path))
        segments = []
        for entry in doc["segments"]:
            phase = Phase(entry["phase"])
            config = TrapFieldConfig(
                coeffs=coeffs,
                b_field_gauss=float(entry["b_field_gauss"]),
                mean_depth_hz=depth_hz_from_mk(float(entry["depth_mk"])),
                temperature_k=float(entry["temperature_uk"]) * 1e-6,
            )
            segments.append(TransferSegment(
                phase=phase,
                duration_s=float(entry["duration_s"]),
                config=config,
                t2_override_s=(float(entry["t2_override_s"])
                               if "t2_override_s" in entry else None),
            ))
        return TransferTimeline(tuple(segments), float(doc["t1_s"]),
                                float(doc["t2prime_s"]))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise InvalidArgumentError(
            f"{path}: missing timeline key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
