"""The property tests draw the same cases with and without ``CI`` set."""

from hypothesis import settings


def test_loaded_profile_does_not_depend_on_the_environment():
    # Hypothesis's ci profile, loaded when CI is set, is derandomized; its
    # default profile keeps a database of failing examples on disk and times
    # each example out.  Each would make a run's verdict depend on where it
    # runs, not on its seed.
    assert settings.default.derandomize is False
    assert settings.default.database is None
    assert settings.default.deadline is None
