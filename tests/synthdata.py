"""Shared synthetic samples and intensity tables for the test suite.

The two table sets mimic the qualitative shapes of measured low- and
high-nitrogen sensors: the low-N sample has the long dephasing time but a
small NV- density, weak charge stability, and stronger contrast loss at
high intensity; the high-N sample is the opposite. Overheads shrink with
intensity for both.
"""

from nvsk.core import DiamondSample
from nvsk.sensitivity import IntensityRow, IntensityTable

# (intensity mW/um^2, contrast, psi, overhead us)
LOW_N_ROWS = [
    (1e-3, 0.018, 0.22, 1.2e4),
    (1e-2, 0.017, 0.20, 1.8e3),
    (1e-1, 0.014, 0.16, 2.6e2),
    (1e0, 0.010, 0.11, 2.4e1),
    (1e1, 0.006, 0.07, 2.0),
]

HIGH_N_ROWS = [
    (1e-3, 0.019, 0.80, 1.2e4),
    (1e-2, 0.019, 0.78, 1.8e3),
    (1e-1, 0.018, 0.74, 2.6e2),
    (1e0, 0.017, 0.69, 2.4e1),
    (1e1, 0.015, 0.64, 2.0),
]


def table_from_rows(rows) -> IntensityTable:
    return IntensityTable(
        IntensityRow(intensity=i, contrast_c=c, psi=p, t_overhead=o)
        for i, c, p, o in rows
    )


def low_n_table() -> IntensityTable:
    return table_from_rows(LOW_N_ROWS)


def high_n_table() -> IntensityTable:
    return table_from_rows(HIGH_N_ROWS)


def low_n_sample() -> DiamondSample:
    return DiamondSample(0.8, 108.0, 0.39, 0.2)


def high_n_sample() -> DiamondSample:
    # nitrogen-rich sensor: as-grown chosen so ~14 ppm survives NV formation
    return DiamondSample(20.8, 108.0, 3.8, 0.78)


def table_rows_to_csv_text(rows) -> str:
    lines = ["intensity_mw_um2,contrast,psi,overhead_us"]
    for i, c, p, o in rows:
        lines.append(f"{i},{c},{p},{o}")
    return "\n".join(lines) + "\n"
