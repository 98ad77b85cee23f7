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
    "unifying/b_zero": "f64733e9e60b1b0e",
    "unifying/pdc_exact": "cb4ae3ddfcfdf2b5",
    "unifying/th3_exact": "a259747db0efebdf",
    "unifying/open_weak": "b8ab1603c14f744f",
    "unifying/open_strong": "1cc1fa5eebe37c29",
    "cor2/pdc_exact": "0cc4539bfb00b7e2",
    "cor2/th3_exact": "b983b5cc1b6dc929",
    "bcdms/b_zero": "c51815803a7cfbf6",
    "bcdms/pdc_exact": "d517e940288d25b6",
    "bcdms/th3_exact": "da3d932c08ad2c67",
    "bcdms/open_weak": "5dc00c267545dbda",
    "bcdms/open_strong": "683b5f5a57717e86",
    "th1/pdc_exact": "89382aa900520220",
    "th1/th3_exact": "0cf74383658b517c",
    "th1/open_strong": "e43479377d6a09ab",
    "bcpr/b_zero": "c6317f2a304d8c6b",
    "bcpr/pdc_exact": "7ef0423a359dd392",
    "bcpr/th3_exact": "6e80aca2e48f3ad5",
    "bcpr/open_weak": "b8d7aebc6a99854b",
    "bcpr/open_strong": "e608d4fef7580f0b",
    "bergmans/b_zero": "abbb934096015eba",
    "bergmans/pdc_exact": "336f0621b0b81be2",
    "bergmans/th3_exact": "5ea5ac3f4710cc6b",
    "bergmans/open_weak": "5e88ae427c780434",
    "bergmans/open_strong": "376e97bb57d360d0",
    "schemeE/b_zero": "c2c349de8324ff68",
    "schemeE/pdc_exact": "db6bb3aa0855c5f2",
    "schemeE/th3_exact": "4cbdb1f67cebf3f5",
    "schemeE/open_weak": "cc49fd71c347b553",
    "schemeE/open_strong": "18d1942d0892edf8",
    "capacity/b_zero": "500ca7173bd6be7d",
    "capacity/pdc_exact": "898096345ff56b44",
    "capacity/th3_exact": "aba9bb646d4460bd",
    "capacity/open_weak": "08230c66762e4643",
    "capacity/open_strong": "8505438806d56543",
}

SPLIT_DIGESTS = {
    "bcdms/open_weak": "5bdcf2318f4b8492",
    "bcdms/open_strong": "16737764a07a045c",
    "bcdms/p1_zero": "ad2a370e6a6f836e",
    "bcdms/p2_zero": "7b6b2dcc67037636",
    "th1/open_strong": "b3e2262312fef067",
    "th1/p1_zero": "8cfc7f0c861d85a9",
    "th1/p2_zero": "941ec971bc1ad181",
    "bcpr/open_weak": "36eca31a987d03a2",
    "bcpr/open_strong": "675cf490aa57a83b",
    "bcpr/p1_zero": "e7c585e365c27b42",
    "bcpr/p2_zero": "d0716f96b100c4f6",
    "capacity/open_weak": "3648ce198bce570a",
    "capacity/open_strong": "776e1f4eb767af41",
    "capacity/p1_zero": "d66f9b763dee394a",
    "capacity/p2_zero": "f902b79d36f96e9a",
}

COMPARE_DIGESTS = {
    "schemeE/cor2": "31c756bf1b15b6c1",
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
