#!/usr/bin/env python3
"""Write the input files that the README's `magictrap` commands read: the
measured shift coefficients (measured_coeffs.toml), the reference transfer
timeline (transfer_timeline.json), and the shift versus depth at four bias
fields (dls_landscape.csv, the `fit-dls` input, plotted in
dls_landscape.svg). Needs an installed `magictrap`."""
import argparse
from pathlib import Path

import numpy as np

from magictrap.acceptance import (MEASURED_COEFFS, WORKING_B_FIELD,
                                  reference_transfer_timeline)
from magictrap.datafiles import (depth_hz_from_mk, write_coefficients,
                                 write_table, write_timeline)
from magictrap.dls import dls
from magictrap.svg import line_plot

FIELDS_GAUSS = (2.7, 2.9, WORKING_B_FIELD, 3.3)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)
    write_coefficients(outdir / "measured_coeffs.toml", MEASURED_COEFFS)
    write_timeline(outdir / "transfer_timeline.json",
                   reference_transfer_timeline())

    depths_mk = np.linspace(0.0, 0.5, 101).tolist()
    series, rows = [], []
    for b_field in FIELDS_GAUSS:
        shifts = [dls(MEASURED_COEFFS, b_field, depth_hz_from_mk(d))
                  for d in depths_mk]
        series.append((f"B = {b_field:g} G", depths_mk, shifts))
        rows += [(b_field, d, s) for d, s in zip(depths_mk, shifts)]
    write_table(outdir / "dls_landscape.csv",
                ("b_field_gauss", "depth_mk", "dls_hz"), rows)
    line_plot(outdir / "dls_landscape.svg", series, "trap depth (mK)",
              "differential light shift (Hz)")
    print(f"wrote the inputs to {outdir}")


if __name__ == "__main__":
    main()
