"""The columnar CSV writer that every table artifact goes through."""

import csv

import numpy as np

from loewnerqc.artifacts import write_csv


def _read(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_write_csv_splits_complex_and_broadcasts_rows_against_columns(tmp_path):
    rng = np.random.default_rng(12)
    t = rng.random((4, 1))
    theta = rng.random(5) * 2 * np.pi
    z = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    flag = rng.random((4, 5)) < 0.5
    header, rows = _read(write_csv({"t": t, "theta": theta, "z": z, "flag": flag},
                                   tmp_path / "a.csv"))
    assert header == ["t", "theta", "re_z", "im_z", "flag"]
    assert len(rows) == 4 * 5
    cols = np.array(rows).T
    want = np.broadcast_arrays(t, theta, z.real, z.imag)
    for got, src in zip(cols[:4], want):
        # C order: theta varies fastest, and floats read back exactly
        assert (got.astype(float).reshape(4, 5) == src).all()
    assert (cols[4].astype(int).reshape(4, 5) == flag).all()


def test_write_csv_one_dimensional_table(tmp_path):
    x = np.array([0.1, 1.0 / 3.0, -2.5e-300, 1e20])
    header, rows = _read(write_csv({"n": np.arange(4), "x": x}, tmp_path / "b.csv"))
    assert header == ["n", "x"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert (np.array([float(r[1]) for r in rows]) == x).all()


def test_write_csv_object_column_keeps_empty_cells(tmp_path):
    r = np.array([0.5, 0.25])
    mu = np.array([0.125, 1.0 / 7.0]).astype(object)
    mu[1] = ""
    header, rows = _read(write_csv({"r": r, "abs_mu_fd": mu}, tmp_path / "c.csv"))
    assert header == ["r", "abs_mu_fd"]
    assert rows == [["0.5", "0.125"], ["0.25", ""]]
    assert float(rows[0][1]) == 0.125
