"""The paper's own test suites, SciPy's ``TestWassersteinDistanceND`` and ``TestWassersteinDistance``, run on earthmover.

The paper's implementation is ``scipy.stats.wasserstein_distance_nd``, and
it extends SciPy's 1D ``wasserstein_distance``, which earthmover's flat path
computes. Their tests ship with SciPy; here every call they make to either
function goes to ``earthmover.wasserstein_distance`` instead, references
included, so each case checks earthmover against itself under the
transformation the case is about, or against closed forms (and, for the nd
suite, SciPy's 1D ``wasserstein_distance``).
"""

import pytest
import scipy.stats

from earthmover import wasserstein_distance

test_stats = pytest.importorskip("scipy.stats.tests.test_stats")


def earthmover_distance(u_values, v_values, u_weights=None, v_weights=None):
    return wasserstein_distance(u_values, v_values, u_weights, v_weights).distance


class TestWassersteinDistanceNDOnEarthmover(test_stats.TestWassersteinDistanceND):
    @pytest.fixture(autouse=True)
    def _earthmover(self, monkeypatch):
        monkeypatch.setattr(scipy.stats, "wasserstein_distance_nd", earthmover_distance)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="earthmover raises ValueError subclasses too, but its messages do not "
        "match SciPy's 'Invalid input values' regexes",
    )
    def test_error_code(self):
        super().test_error_code()


class TestWassersteinDistanceOnEarthmover(test_stats.TestWassersteinDistance):
    @pytest.fixture(autouse=True)
    def _earthmover(self, monkeypatch):
        monkeypatch.setattr(scipy.stats, "wasserstein_distance", earthmover_distance)

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="earthmover reads every value SciPy does, nan included, but states an "
        "undefined result in DistanceResult.finiteness, not by a RuntimeWarning",
    )
    def test_inf_values(self):
        super().test_inf_values()
