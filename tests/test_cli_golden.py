"""CLI output bytes pinned by sha256 (the first 16 hex digits).

Every ``region`` selector runs at one point of each regime it applies to,
plus the two ``compare`` pairs.  The covariance-split selectors also run at
the default split grid (21 points per axis, 194,481 splits, several slabs
of the streamed hull) at the two open points and at two points with one
power switched off.  Any change to a frontier, a report or a metadata file
shows here; a change that alters outputs on purpose records new digests
and says why.  ``verify`` is left out: its Monte Carlo reports
are not meant to be frozen.  The ``fig3`` files are pinned in
``test_cli.py::test_fig3_reference_pair``.

The digests hold for one floating-point environment (recorded with numpy
2.4 on x86-64, which CI pins); another numpy build may round the last bit
of a rate differently.
"""

import hashlib

import pytest

from cogregions.cli import main

# (a, b, p1, p2) of one point per regime.
REGIMES = {
    "b_zero": ("0.3", "0", "2", "1.5"),
    "pdc_exact": ("0", "1.05", "1", "1"),
    "th3_exact": ("0", "3", "1", "1"),
    "open_weak": ("0.5", "0.8", "1", "1"),
    "open_strong": ("0.2", "2.5", "2", "1"),
}

# Selectors and the regimes where they run without a regime error.
APPLIES = {
    "unifying": tuple(REGIMES),
    "cor2": ("pdc_exact", "th3_exact"),
    "bcdms": tuple(REGIMES),
    "th1": ("pdc_exact", "th3_exact", "open_strong"),
    "bcpr": tuple(REGIMES),
    "bergmans": tuple(REGIMES),
    "schemeE": tuple(REGIMES),
    "capacity": tuple(REGIMES),
}

SMALL_GRIDS = ("--alpha-grid", "51", "--beta-grid", "51", "--split-grid", "5")

# The split grid is left at its default.
DEFAULT_SPLIT = ("--alpha-grid", "51", "--beta-grid", "51")

# (a, b, p1, p2) of the default-split-grid points: the two open regimes and
# one power switched off at a time.
SPLIT_POINTS = {
    "open_weak": REGIMES["open_weak"],
    "open_strong": REGIMES["open_strong"],
    "p1_zero": ("0.2", "2.5", "0", "1"),
    "p2_zero": ("0.2", "2.5", "2", "0"),
}

# Split selectors and the points where they run without a regime error.
SPLIT_APPLIES = {
    "bcdms": tuple(SPLIT_POINTS),
    "th1": ("open_strong", "p1_zero", "p2_zero"),
    "bcpr": tuple(SPLIT_POINTS),
    "capacity": tuple(SPLIT_POINTS),
}

REGION_DIGESTS = {
    "unifying/b_zero": "9e8cf2775ff4e7ec",
    "unifying/pdc_exact": "cb4ae3ddfcfdf2b5",
    "unifying/th3_exact": "a259747db0efebdf",
    "unifying/open_weak": "d3096b10447da695",
    "unifying/open_strong": "1cc1fa5eebe37c29",
    "cor2/pdc_exact": "0d9b57c4a7932111",
    "cor2/th3_exact": "3ed3a9944cf74f30",
    "bcdms/b_zero": "c51815803a7cfbf6",
    "bcdms/pdc_exact": "3f7fc87f9606396e",
    "bcdms/th3_exact": "2c2b635beefbcac1",
    "bcdms/open_weak": "a76b8321daa21a7d",
    "bcdms/open_strong": "991a091cb01f4ecc",
    "th1/pdc_exact": "60456ce2671ed665",
    "th1/th3_exact": "7382ac76131c0449",
    "th1/open_strong": "323f351cc8acce20",
    "bcpr/b_zero": "26cad71a0ed6978b",
    "bcpr/pdc_exact": "404616e7a77c7740",
    "bcpr/th3_exact": "3d9bfd87dd7bc1d8",
    "bcpr/open_weak": "58046e8dced7400f",
    "bcpr/open_strong": "7a5b47ca0cc90389",
    "bergmans/b_zero": "eb29c670728226ca",
    "bergmans/pdc_exact": "7848904c50f64fed",
    "bergmans/th3_exact": "b03a4eb3b18f04d9",
    "bergmans/open_weak": "258db7e278b5094f",
    "bergmans/open_strong": "5a9aa10f0c831ed0",
    "schemeE/b_zero": "c05b96a6b93b0c2e",
    "schemeE/pdc_exact": "bdafeb37b584b55c",
    "schemeE/th3_exact": "c4c0cbf091e569a7",
    "schemeE/open_weak": "a81652c706d6f049",
    "schemeE/open_strong": "da6587f33381da5c",
    "capacity/b_zero": "500ca7173bd6be7d",
    "capacity/pdc_exact": "898096345ff56b44",
    "capacity/th3_exact": "aba9bb646d4460bd",
    "capacity/open_weak": "7b976216d933ce85",
    "capacity/open_strong": "64bb8d65dbc72c10",
}

SPLIT_DIGESTS = {
    "bcdms/open_weak": "f018db949072f417",
    "bcdms/open_strong": "1286eab1130326bc",
    "bcdms/p1_zero": "8f9f3ea3be07d9f4",
    "bcdms/p2_zero": "709b932032dc4296",
    "th1/open_strong": "6a3001d0fe95f88d",
    "th1/p1_zero": "8cfc7f0c861d85a9",
    "th1/p2_zero": "e1eb4f7b8f5a4be1",
    "bcpr/open_weak": "3d9edf73ce10ab19",
    "bcpr/open_strong": "318ee8107e76dd58",
    "bcpr/p1_zero": "e7c585e365c27b42",
    "bcpr/p2_zero": "667eded792babeca",
    "capacity/open_weak": "45a2ff19ddfdd054",
    "capacity/open_strong": "7eac7ffa9fef19f9",
    "capacity/p1_zero": "d66f9b763dee394a",
    "capacity/p2_zero": "31e97f01b5c0f51d",
}

COMPARE_DIGESTS = {
    "schemeE/cor2": "8a4909ee4e5640f8",
    "th1/unifying": "86a12f796e85e9bc",
}


def _point(regime, points=REGIMES):
    a, b, p1, p2 = points[regime]
    return ("--a", a, "--b", b, "--p1", p1, "--p2", p2)


def region_digest(capsys, tmp_path, bound, regime, points=REGIMES, grids=SMALL_GRIDS):
    """Digest of the CSV on stdout, then the JSON file and its metadata."""
    argv = ["region", "--bound", bound, *_point(regime, points), *grids]
    digest = hashlib.sha256()
    assert main(argv) == 0
    digest.update(capsys.readouterr().out.encode())
    out = tmp_path / f"{bound}_{regime}.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    digest.update(out.read_bytes())
    digest.update((tmp_path / f"{bound}_{regime}.meta.json").read_bytes())
    return digest.hexdigest()[:16]


def compare_digest(capsys, first, second):
    """Digest of the exit code and the report on stdout."""
    code = main(["compare", first, second, *_point("th3_exact"), *SMALL_GRIDS])
    text = f"{code}\n{capsys.readouterr().out}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "bound,regime",
    [(bound, regime) for bound, regimes in APPLIES.items() for regime in regimes],
)
def test_region_bytes_unchanged(capsys, tmp_path, bound, regime):
    assert region_digest(capsys, tmp_path, bound, regime) == REGION_DIGESTS[
        f"{bound}/{regime}"
    ]


@pytest.mark.parametrize("first,second", [("schemeE", "cor2"), ("th1", "unifying")])
def test_compare_bytes_unchanged(capsys, first, second):
    assert compare_digest(capsys, first, second) == COMPARE_DIGESTS[f"{first}/{second}"]


@pytest.mark.parametrize(
    "bound,point",
    [(bound, point) for bound, points in SPLIT_APPLIES.items() for point in points],
)
def test_default_split_grid_bytes_unchanged(capsys, tmp_path, bound, point):
    digest = region_digest(capsys, tmp_path, bound, point, SPLIT_POINTS, DEFAULT_SPLIT)
    assert digest == SPLIT_DIGESTS[f"{bound}/{point}"]
