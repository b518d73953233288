"""Bench (extension): ECC datapath study — Vicis's mechanism composed
with the protected router on the live fabric."""

from repro.comparison.ecc_sim import run_ecc_study


def test_ecc_datapath_protection():
    result = run_ecc_study(
        faulty_ports_per_router=0.3,
        measure_cycles=2000,
        seed=1,
    )
    print(
        f"\nclean={result.clean} corrected={result.corrected} "
        f"uncorrectable={result.uncorrectable} "
        f"silent={result.silent_corruptions} "
        f"protected={result.protected_fraction:.3f}"
    )
    # datapath faults were actually exercised
    assert result.bits_flipped > 0
    assert result.corrected > 0
    # SECDED guarantee: no silent data corruption, high protection
    assert result.silent_corruptions == 0
    assert result.protected_fraction > 0.95
    # accounting closes: every delivered packet decoded exactly once
    assert result.total_codewords == result.packets_delivered
