"""File formats: flat key-value coefficient files, CSV tables, and the JSON
transfer-timeline document. All numeric output carries at least 9
significant digits so downstream comparisons have headroom.
"""
import csv
import json
import math

from .constants import hz_from_kelvin
from .dls import TrapCoefficients
from .errors import InvalidArgumentError
from .fitting import make_dls_dataset
from .ramsey import TrapFieldConfig
from .transfer import Phase, TransferSegment, TransferTimeline

CSV_FLOAT_FORMAT = "%.12g"


def format_value(value, precision=9):
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def write_keyvalue(stream, pairs, precision=9):
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
    return abs(depth_hz) / hz_from_kelvin(1e-3)


def read_coefficients(path) -> TrapCoefficients:
    """Parse a flat key-value coefficients file (TOML-style `key = value`
    lines; `#` comments). Keys other than the three coefficients are
    ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise InvalidArgumentError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            try:
                values[key.strip()] = float(raw.strip())
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


def _read_csv_rows(path, minimum_columns):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidArgumentError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < minimum_columns:
                raise InvalidArgumentError(
                    f"{path}:{lineno}: expected >= {minimum_columns} columns")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise InvalidArgumentError(
                    f"{path}:{lineno}: non-numeric cell") from exc
    return [h.strip() for h in header], rows


def read_dls_csv(path):
    """Read `b_field_gauss, depth_mk, dls_hz[, sigma_hz]` and group rows
    into per-field datasets. Depths are converted to signed Hz."""
    header, rows = _read_csv_rows(path, 3)
    has_sigma = len(header) >= 4
    grouped = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row)
    datasets = []
    for b_field in sorted(grouped):
        block = grouped[b_field]
        depths = [depth_hz_from_mk(r[1]) for r in block]
        shifts = [r[2] for r in block]
        sigmas = [r[3] for r in block] if has_sigma else None
        datasets.append(make_dls_dataset(b_field, depths, shifts, sigmas))
    return datasets


def read_ramsey_csv(path):
    """Read `t_s, p[, sigma]` sample rows."""
    header, rows = _read_csv_rows(path, 2)
    has_sigma = len(header) >= 3
    if has_sigma:
        return [(r[0], r[1], r[2]) for r in rows]
    return [(r[0], r[1]) for r in rows]


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from exc
    try:
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
    except KeyError as exc:
        raise InvalidArgumentError(
            f"{path}: missing timeline key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
