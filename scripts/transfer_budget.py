#!/usr/bin/env python3
"""Audit the coherence budget of the documented qubit-transfer sequence:
overlap with the mobile trap, 2 ms of transport, return to the register.
Also emits template input files for the `magictrap transfer` subcommand."""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from magictrap.acceptance import MEASURED_COEFFS, reference_transfer_timeline
from magictrap.datafiles import (budget_table, write_coefficients, write_table,
                                 write_timeline)
from magictrap.transfer import coherence_budget


def print_report(tag, report):
    print(f"--- {tag} ---")
    for entry in report.per_segment:
        origin = "measured" if entry.used_override else "model"
        print(f"  {entry.phase.value:9s} {entry.duration_s*1e3:6.2f} ms  "
              f"T2 = {entry.t2_used_s:8.4f} s ({origin}; model "
              f"{entry.t2_model_s:.4f} s)  factor {entry.amplitude_factor:.6f}")
    print(f"  retained coherence: {report.retained_coherence:.6f}")
    print(f"  T2* static/mobile:  {report.t2star_static_s:.3f} s / "
          f"{report.t2star_mobile_s:.3f} s")
    print(f"  tau static/mobile:  {report.tau_static_s*1e3:.1f} ms / "
          f"{report.tau_mobile_s*1e3:.1f} ms")
    print(f"  coherence-time loss: {report.fractional_tau_loss*100:.2f} %")
    for note in report.notes:
        print(f"  note: {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    parser.add_argument("--post-temp-uk", type=float, default=16.0)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    timeline = reference_transfer_timeline()
    measured = coherence_budget(timeline, args.post_temp_uk * 1e-6,
                                t2star_static_s=6.6, t2star_mobile_s=1.9)
    model = coherence_budget(timeline, args.post_temp_uk * 1e-6)
    print_report("measured T2* endpoints (6.6 s -> 1.9 s)", measured)
    print_report("model T2* endpoints", model)

    write_table(args.outdir / "transfer_budget.csv", *budget_table(measured))

    write_coefficients(args.outdir / "measured_coeffs.toml", MEASURED_COEFFS)
    write_timeline(args.outdir / "transfer_timeline.json", timeline)
    print(f"wrote {args.outdir}/transfer_budget.csv and template inputs")


if __name__ == "__main__":
    main()
