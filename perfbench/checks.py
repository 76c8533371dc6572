"""Output checks.  Each returns a list of misses; an empty list is a pass.

An op whose check reports any miss counts as failed in ``fail_frac``.
References come from the package's acceptance gate, not from CSV byte hashes,
so a change that moves only the last printed digits still passes.
"""

import numpy as np

# Maximal-MSE gain ratios of the optimal over the uniform allocation, L = 1..8.
FIG2_GAIN_RATIOS = (1.0, 1.0, 1.17576, 1.62957, 2.54202, 4.48742, 9.10700, 20.7436)

# Nominal Rapp response (G = V_sat = 1, S = 2) at amplitudes 0.5, 1.0 and 1.5.
RAPP_NOMINAL = {0.5: 0.492479, 1.0: 0.840896, 1.5: 0.955935}

# Criterion-6 bands on the optimal allocation (order 7, 7 pilots): LS / LMMSE
# at 0 dB, and LMMSE / LS at 60 dB.
BAND_LS_OVER_COH_0DB = (170.0, 340.0)
BAND_LS_OVER_NONCOH_0DB = (3.4, 6.6)
BAND_LMMSE_OVER_LS_60DB = (0.65, 1.35)

# Slack for "LMMSE max MSE <= LS max MSE": both are computed in floating point.
ORDER_SLACK = 1e-9


def close(label, got, want, rel, atol=0.0):
    """Elementwise ``|got - want| <= atol + rel * |want|``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rel * np.abs(want))
    if bad.any():
        k = int(np.argmax(bad))
        return [f"{label}: {got.flat[k]!r} != {want.flat[k]!r} (rel {rel})"]
    return []


def scaled_close(label, got, want, rel):
    """``max |got - want| <= rel * max |want|`` over a whole (complex) array."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    error = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    if not error <= rel * scale:
        return [f"{label}: max error {error:.3e} > {rel} x {scale:.3e}"]
    return []


def within(label, values, bounds):
    lo, hi = bounds
    values = np.atleast_1d(np.asarray(values, dtype=float))
    bad = ~((values >= lo) & (values <= hi))
    if bad.any():
        return [f"{label}: {values[bad][0]!r} outside [{lo}, {hi}]"]
    return []


def not_above(label, got, bound):
    """Elementwise ``got <= bound`` up to ``ORDER_SLACK`` relative."""
    got, bound = np.asarray(got, dtype=float), np.asarray(bound, dtype=float)
    bad = ~(got <= bound * (1.0 + ORDER_SLACK))
    if bad.any():
        k = int(np.argmax(bad))
        return [f"{label}: {got.flat[k]!r} > {bound.flat[k]!r}"]
    return []


def fig4_table(columns, check_bands):
    """Checks on a fig4 table given as a dict of column arrays.

    The optimal-allocation LS column equals ``1 / SNR`` (per-symbol convention)
    and no LMMSE column exceeds the LS column of its allocation.  With
    ``check_bands`` the 0 dB and 60 dB rows must also fall in the
    criterion-6 bands.
    """
    snr = 10.0 ** (columns["snr_db"] / 10.0)
    misses = close("fig4 d_optimal_ls = 1/SNR", columns["d_optimal_ls"], 1.0 / snr, rel=1e-6)
    for allocation in ("uniform", "optimal"):
        ls = columns[f"d_{allocation}_ls"]
        for mode in ("coh", "noncoh"):
            misses += not_above(f"fig4 {allocation} lmmse_{mode} <= ls", columns[f"d_{allocation}_lmmse_{mode}"], ls)
    if check_bands:
        rows = {float(db): k for k, db in enumerate(columns["snr_db"])}
        low, high = rows.get(0.0), rows.get(60.0)
        if low is None or high is None:
            return misses + ["fig4: the 0 dB and 60 dB rows are missing"]
        ls, coh, noncoh = (columns[f"d_optimal_{c}"] for c in ("ls", "lmmse_coh", "lmmse_noncoh"))
        misses += within("fig4 0 dB LS/LMMSE-coh", ls[low] / coh[low], BAND_LS_OVER_COH_0DB)
        misses += within("fig4 0 dB LS/LMMSE-noncoh", ls[low] / noncoh[low], BAND_LS_OVER_NONCOH_0DB)
        misses += within(
            "fig4 60 dB LMMSE/LS", [coh[high] / ls[high], noncoh[high] / ls[high]], BAND_LMMSE_OVER_LS_60DB
        )
    return misses
