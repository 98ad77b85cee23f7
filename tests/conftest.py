"""One hypothesis profile wherever the suite runs.

Hypothesis loads its derandomized ``ci`` profile when ``CI`` is set, so a
CI run would draw other cases than a local one.  This profile derives from
hypothesis's ``default`` profile, not from the loaded one, and is loaded
unconditionally; the draws follow ``--hypothesis-seed`` (0 unless given,
from ``pyproject.toml``).  Property tests run without a deadline: their
first examples pay for imports and caches.
"""

from hypothesis import settings

settings.register_profile(
    "cogregions",
    settings.get_profile("default"),
    deadline=None,
    database=None,
    derandomize=False,
)
settings.load_profile("cogregions")
