import warnings

import pytest

from paretocoal.regression import fit_c_N_scaling
from paretocoal.samplers import RngStream


def test_degenerate_weights_raise_naming_N():
    # At beta = 200 every estimate's ESS is about 1, so its stderr, and
    # the fit's 1/se^2 weight, are noise.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(
            ValueError, match=r"alpha=2.5, beta=200.0, N=\[10, 20, 40, 80\]"
        ):
            fit_c_N_scaling(2.5, 200.0, [10, 20, 40, 80], 2000, RngStream(1))
