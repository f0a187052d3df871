"""Output checks on the files the CLI stages write.

The checks parse the output files themselves rather than calling the
program's readers, so a reader defect cannot hide a writer defect. Every
failed check raises :class:`CheckFailed`; the caller counts it as a failed
pass.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

IV_TOL = 1e-6            # acceptance criterion 8
RECOVERY_BAND = (0.35, 0.65)  # acceptance criterion 7
ORACLE_TOL = 0.15        # the oracle within 15 % of the generating sigma


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_surface(path, n_time: int, n_price: int) -> dict:
    """Every cell present, finite and non-negative, with vol_lo <= vol_hi
    (acceptance criterion 11). Returns the parsed columns."""
    rows = _rows(path)
    require(len(rows) == n_time * n_price,
            f"surface has {len(rows)} rows, expected {n_time * n_price}")
    cells = {(int(r["i"]), int(r["j"])) for r in rows}
    require(len(cells) == len(rows), "surface repeats a cell")
    cols = {c: np.array([float(r[c]) for r in rows])
            for c in ("vol_mean", "vol_lo", "vol_hi")}
    cols["masked"] = np.array([r["masked"].strip() == "1" for r in rows])
    for c in ("vol_mean", "vol_lo", "vol_hi"):
        require(bool(np.all(np.isfinite(cols[c]))), f"surface {c} has a non-finite cell")
        require(bool(np.all(cols[c] >= 0.0)), f"surface {c} has a negative cell")
    require(bool(np.all(cols["vol_lo"] <= cols["vol_hi"])), "surface has vol_lo > vol_hi")
    require(bool(np.any(~cols["masked"])), "surface has no visited cell")
    return cols


def visited_mean_vol(cols: dict) -> float:
    return float(cols["vol_mean"][~cols["masked"]].mean())


def check_recovery(cols: dict, oracle: float, sigma: float) -> None:
    """Visited-cell mean vol in criterion 7's band; the oracle near sigma."""
    lo, hi = RECOVERY_BAND
    avg = visited_mean_vol(cols)
    require(lo <= avg <= hi, f"visited-cell mean vol {avg:.4f} outside [{lo}, {hi}]")
    require(abs(oracle - sigma) / sigma < ORACLE_TOL,
            f"oracle vol {oracle:.4f} not within {ORACLE_TOL:.0%} of {sigma}")


def check_quotes(curve_path, compare_path, chain, snapshots) -> None:
    """Each implied vol recovers its generating vol within IV_TOL, and
    compare writes one row per (snapshot, in-band strike)."""
    want = {q.strike: q.vol for q in chain}
    curve = _rows(curve_path)
    require(len(curve) == len(chain), f"implied curve has {len(curve)} rows, "
                                      f"expected {len(chain)}")
    for r in curve:
        k, iv = float(r["strike"]), float(r["iv"])
        require(k in want, f"implied curve has unknown strike {k!r}")
        require(abs(iv - want[k]) <= IV_TOL,
                f"strike {k!r}: implied vol {iv!r} vs generating {want[k]!r}")
    rows = _rows(compare_path)
    pairs = {(float(r["snapshot"]), float(r["strike"])) for r in rows}
    expected = {(float(t), k) for t in snapshots for k in want}
    require(len(rows) == len(expected) and pairs == expected,
            f"compare wrote {len(rows)} rows, expected one per (snapshot, strike): "
            f"{len(expected)}")
    for r in rows:
        k, iv, rv = float(r["strike"]), float(r["implied_vol"]), float(r["realized_vol"])
        require(abs(iv - want[k]) <= IV_TOL,
                f"compare strike {k!r}: implied vol {iv!r} vs generating {want[k]!r}")
        require(np.isfinite(rv) and rv >= 0.0, f"compare strike {k!r}: realized vol {rv!r}")
