"""The paper's own test suite, SciPy's ``TestWassersteinDistanceND``, run on earthmover.

The paper's implementation is ``scipy.stats.wasserstein_distance_nd``. Its
tests ship with SciPy; here every call they make to it goes to
``earthmover.wasserstein_distance`` instead, references included, so each
case checks earthmover against itself under the transformation the case is
about, or against SciPy's 1D ``wasserstein_distance`` and closed forms.
"""

import pytest
import scipy.stats

from earthmover import wasserstein_distance

test_stats = pytest.importorskip("scipy.stats.tests.test_stats")


def earthmover_nd(u_values, v_values, u_weights=None, v_weights=None):
    return wasserstein_distance(u_values, v_values, u_weights, v_weights).distance


class TestWassersteinDistanceNDOnEarthmover(test_stats.TestWassersteinDistanceND):
    @pytest.fixture(autouse=True)
    def _earthmover(self, monkeypatch):
        monkeypatch.setattr(scipy.stats, "wasserstein_distance_nd", earthmover_nd)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="earthmover raises ValueError subclasses too, but its messages do not "
        "match SciPy's 'Invalid input values' regexes",
    )
    def test_error_code(self):
        super().test_error_code()
