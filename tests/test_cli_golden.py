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
    "unifying/b_zero": "1107a608c52addce",
    "unifying/pdc_exact": "e9a2598c4697a416",
    "unifying/th3_exact": "c5eae176eec5513f",
    "unifying/open_weak": "b96f85c45d919f17",
    "unifying/open_strong": "68968f563e9dd9fc",
    "cor2/pdc_exact": "4971593d5d565f83",
    "cor2/th3_exact": "f81505012859c5ef",
    "bcdms/b_zero": "f680566021b6746a",
    "bcdms/pdc_exact": "d15928eff372bfd8",
    "bcdms/th3_exact": "5597cdb8e2adc16d",
    "bcdms/open_weak": "87a0522bbc8ab037",
    "bcdms/open_strong": "6cccc91324b70d93",
    "th1/pdc_exact": "9cdfc345107e648b",
    "th1/th3_exact": "117cb7a6be355243",
    "th1/open_strong": "156cb21d21782b6c",
    "bcpr/b_zero": "a01cadb5517c0e27",
    "bcpr/pdc_exact": "c90b63cb47220261",
    "bcpr/th3_exact": "9b1ca1112b2a489d",
    "bcpr/open_weak": "140f9862f78d1472",
    "bcpr/open_strong": "427227a83a6a7ce6",
    "bergmans/b_zero": "dcc2ce11108c3f5e",
    "bergmans/pdc_exact": "627235b0eedaedb8",
    "bergmans/th3_exact": "2ac30e91dc971cb1",
    "bergmans/open_weak": "53b8da2fd925f75d",
    "bergmans/open_strong": "fa9a78b553b06481",
    "schemeE/b_zero": "f3e45fc52e40a584",
    "schemeE/pdc_exact": "da28be165b38a21c",
    "schemeE/th3_exact": "5b9a954fca7c2b2b",
    "schemeE/open_weak": "77b877966e693600",
    "schemeE/open_strong": "9ce7ecf833db8dbe",
    "capacity/b_zero": "0d8257ae0f8268dd",
    "capacity/pdc_exact": "6d09b501b5cfe736",
    "capacity/th3_exact": "e4a82191ee30c1fd",
    "capacity/open_weak": "89f227f8851b4032",
    "capacity/open_strong": "4d158be82bda5ae8",
}

SPLIT_DIGESTS = {
    "bcdms/open_weak": "60ed4333a85ee936",
    "bcdms/open_strong": "af85fdce75021d6d",
    "bcdms/p1_zero": "4cbfbcb9b78398b0",
    "bcdms/p2_zero": "657bafc086020890",
    "th1/open_strong": "6f46394c6b84e8e8",
    "th1/p1_zero": "da9e95a703ed5772",
    "th1/p2_zero": "42477e83eaed0b1d",
    "bcpr/open_weak": "54136405afcf3a7e",
    "bcpr/open_strong": "624acbf6f514c309",
    "bcpr/p1_zero": "c255d4450c5ae87d",
    "bcpr/p2_zero": "ae35583fa4fe7947",
    "capacity/open_weak": "da3f8e7adce9c230",
    "capacity/open_strong": "f773ef428f1ef63d",
    "capacity/p1_zero": "3752bc0147c837c2",
    "capacity/p2_zero": "b95086fd33e7c112",
}

COMPARE_DIGESTS = {
    "schemeE/cor2": "2d9f5d262967dce3",
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
