#!/usr/bin/env python
"""Reliability study: FIT, MTTF, SPF, and what-if sweeps.

Walks the paper's Section VII/VIII analysis with the library's public API
and then goes beyond it: MTTF sensitivity to operating temperature and
voltage (the FORC/TDDB model makes these first-class), the SPF-vs-VC
trade-off, and the exact faults-to-failure distribution.

Run:  python examples/reliability_analysis.py
"""

from repro.config import RouterConfig
from repro.reliability import (
    RouterGeometry,
    analyze_mttf,
    analyze_spf,
    baseline_stages,
    calibrated_parameters,
    correction_stages,
    faults_to_failure,
    spf_vs_vc_count,
    total_fit,
)
from repro.synthesis import area_overhead_vs_vcs


def main() -> None:
    geom = RouterGeometry()  # the paper's 5x5, 4-VC router in an 8x8 mesh

    # --- Tables I & II: stage FIT rates ---
    print("per-stage FIT (failures per 1e9 hours):")
    base, corr = baseline_stages(geom), correction_stages(geom)
    for stage in ("RC", "VA", "SA", "XB"):
        print(
            f"  {stage}: baseline {base[stage].fit():8.1f}"
            f"   correction {corr[stage].fit():6.1f}"
        )
    print(f"  totals: {total_fit(base):.1f} / {total_fit(corr):.1f}")

    # --- Section VII: MTTF ---
    rep = analyze_mttf(geom)
    print(f"\nMTTF baseline : {rep.mttf_baseline_hours:12,.0f} h")
    print(f"MTTF protected: {rep.mttf_protected_hours:12,.0f} h "
          f"({rep.improvement:.1f}x, paper reports ~6x)")

    # --- what-if: hotter silicon (extension enabled by the FORC model) ---
    print("\nMTTF of the protected router vs junction temperature:")
    for temp in (300.0, 330.0, 360.0):
        l1 = total_fit(base, temp_k=temp)
        l2 = total_fit(corr, temp_k=temp)
        from repro.reliability import mttf_two_component_paper

        mttf = mttf_two_component_paper(l1, l2)
        print(f"  T = {temp:5.0f} K : {mttf:14,.0f} h")

    # --- what-if: recalibrated process (different per-FET FIT) ---
    harsh = calibrated_parameters(fit_per_fet=0.5)
    print(
        "\nwith a 5x worse per-FET FIT the baseline pipeline FIT becomes "
        f"{total_fit(base, params=harsh):.0f}"
    )

    # --- Section VIII: SPF ---
    spf = analyze_spf(area_overhead=0.31, config=RouterConfig())
    print(f"\nSPF (4 VCs, 31% overhead): {spf.spf:.1f} "
          f"(mean faults to failure {spf.mean_faults_to_failure:.0f})")
    for bounds in spf.stages:
        print(
            f"  {bounds.stage}: tolerates up to {bounds.max_tolerated} faults,"
            f" min {bounds.min_to_failure} to fail"
        )

    # --- SPF vs VC count, with the synthesis proxy supplying overheads ---
    sweep = spf_vs_vc_count(area_overhead_vs_vcs([2, 4, 6, 8]))
    print("\nSPF vs VCs per port:")
    for vcs, r in sweep.items():
        print(f"  {vcs} VCs: SPF {r.spf:5.1f} (area overhead {r.area_overhead:.0%})")

    # --- exact faults-to-failure distribution ---
    law = faults_to_failure()
    print(
        f"\nFaults to failure under random placement: mean {law.mean:.3f} "
        f"(min {law.minimum}, max {law.maximum})"
    )
    print(
        "  (the paper's '15' averages the analytic min 2 and max 28; "
        "random placement is harsher)"
    )
    peak = float(max(law.pmf))
    for k in range(law.minimum, law.maximum + 1):
        p = float(law.pmf[k])
        print(f"  P(T = {k:2d}) = {p:.2e} {'#' * round(40 * p / peak)}")

if __name__ == "__main__":
    main()
