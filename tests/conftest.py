import sys

import pytest


@pytest.fixture
def default_int_digit_limit():
    """The interpreter's default digit limit on int(str), 4300, whatever
    the environment set; a test that needs one skips where there is none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no digit limit on int(str)")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
