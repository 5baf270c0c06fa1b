#!/usr/bin/env python3
"""Map the differential light shift versus trap depth for several bias
fields, together with the line of magic depths. Writes a CSV table and an
SVG figure and prints the per-field magic points."""
import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from magictrap import dls, dls_minimum, magic_depth
from magictrap.acceptance import MEASURED_COEFFS, WORKING_B_FIELD
from magictrap.datafiles import depth_hz_from_mk, mk_from_depth_hz, write_table
from magictrap.svg import line_plot


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    parser.add_argument("--fields", type=float, nargs="+",
                        default=[2.7, 2.9, WORKING_B_FIELD, 3.3])
    parser.add_argument("--depth-mk-max", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=101)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    depths_mk = np.linspace(0.0, args.depth_mk_max, args.points)
    series = []
    rows = []
    for b_field in args.fields:
        shifts = [dls(MEASURED_COEFFS, b_field, depth_hz_from_mk(d))
                  for d in depths_mk]
        series.append((f"B = {b_field:g} G", list(depths_mk), shifts))
        rows += [(b_field, float(d), float(s))
                 for d, s in zip(depths_mk, shifts)]
        u_magic = magic_depth(MEASURED_COEFFS, b_field)
        print(f"B = {b_field:.3f} G: magic depth {mk_from_depth_hz(u_magic):.4f} mK, "
              f"shift minimum {dls_minimum(MEASURED_COEFFS, b_field):+.2f} Hz")

    csv_path = args.outdir / "dls_landscape.csv"
    svg_path = args.outdir / "dls_landscape.svg"
    write_table(csv_path, ("b_field_gauss", "depth_mk", "dls_hz"), rows)
    line_plot(svg_path, series, "trap depth (mK)",
              "differential light shift (Hz)",
              title="DLS vs depth, circular polarization")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
