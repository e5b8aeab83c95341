"""Published numbers from the paper's evaluation (Tables 3, 5, 6; Fig. 12).

Kept verbatim so the benchmarks and the tables under ``results/`` (as
written by ``scripts/run_experiments.py``) can print paper-vs-measured
side by side. Values transcribed from the paper text.
"""

from __future__ import annotations

#: Table 3 — lines of code: {kernel: (input_loc, spatial_loc)}.
TABLE3_LOC = {
    "SpMV": (10, 44),
    "Plus3": (8, 91),
    "SDDMM": (17, 62),
    "MatTransMul": (13, 50),
    "Residual": (9, 48),
    "TTV": (13, 73),
    "TTM": (11, 83),
    "MTTKRP": (15, 86),
    "InnerProd": (11, 115),
    "Plus2": (6, 163),
}

#: Section 8.3 — handwritten Capstan SpMV is 52 lines of Spatial.
HANDWRITTEN_SPMV_LOC = 52

#: Table 5 — {kernel: (par, pcu, pmu, mc, shuffle, limiting resources)}.
TABLE5_RESOURCES = {
    "SpMV": (16, 44, 41, 35, 16, ("MC", "Shuf")),
    "Plus3": (8, 55, 100, 58, 8, ("MC",)),
    "SDDMM": (12, 163, 90, 61, 0, ("PCU",)),
    "MatTransMul": (16, 47, 66, 36, 16, ("Shuf",)),
    "Residual": (16, 43, 65, 36, 16, ("Shuf",)),
    "TTV": (16, 93, 91, 67, 16, ("MC", "Shuf")),
    "TTM": (12, 161, 89, 70, 0, ("PCU", "MC")),
    "MTTKRP": (8, 140, 70, 58, 0, ("PCU",)),
    "InnerProd": (8, 53, 155, 80, 0, ("MC",)),
    "Plus2": (1, 10, 23, 14, 2, ("Shuf",)),
}

#: Table 6 — runtimes normalised to compiled Capstan-HBM2E (= 1.0).
#: {platform: {kernel: normalised runtime}}; None = not evaluated.
TABLE6_NORMALISED = {
    "Capstan (HBM2E, handwritten)": {"SpMV": 0.65},
    "Capstan (Ideal)": {
        "SpMV": 0.77, "Plus3": 0.24, "SDDMM": 0.78, "MatTransMul": 0.75,
        "Residual": 0.75, "TTV": 0.49, "TTM": 0.57, "MTTKRP": 0.44,
        "InnerProd": 0.35, "Plus2": 0.42,
    },
    "Capstan (HBM2E)": {k: 1.0 for k in TABLE3_LOC},
    "Capstan (DDR4)": {
        "SpMV": 12.13, "Plus3": 10.07, "SDDMM": 8.33, "MatTransMul": 12.31,
        "Residual": 12.06, "TTV": 4.92, "TTM": 9.80, "MTTKRP": 7.76,
        "InnerProd": 3.28, "Plus2": 1.72,
    },
    "Plasticine (HBM2E, handwritten)": {"SpMV": 8.72},
    "V100 GPU": {
        "SpMV": 3.15, "Plus3": 41.89, "SDDMM": 18259.50,
        "MatTransMul": 3.59, "Residual": 3.54, "TTV": 232.85,
        "TTM": 284.47, "MTTKRP": 6.77, "InnerProd": 2.76, "Plus2": 381.38,
    },
    "128-Thread CPU": {
        "SpMV": 27.90, "Plus3": 236.40, "SDDMM": 220.28,
        "MatTransMul": 376.52, "Residual": 384.08, "TTV": 335.99,
        "TTM": 8.47, "MTTKRP": 398.72, "InnerProd": 178.34, "Plus2": 59.22,
    },
}

#: Headline claims (abstract): geomean speedups of compiled Capstan.
HEADLINE_CPU_SPEEDUP = 138.0
HEADLINE_GPU_SPEEDUP = 41.0

#: Figure 12 sweep points (GB/s).
FIG12_BANDWIDTHS = (20, 50, 100, 200, 500, 1000, 2000)
