import importlib
import sys

import numpy as np
import pytest

from gbcd import make_constellation


@pytest.fixture(scope="session")
def qam16():
    return make_constellation(16)


@pytest.fixture(scope="session")
def qam256():
    return make_constellation(256)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_channel(rng, B, U):
    return (rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U))) / np.sqrt(2)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(names)`` wraps each named gbcd function (``module.fn``)
    at every binding inside gbcd, as the benchmark's tracer does, with a
    call counter, and returns the counts by name."""
    def count(names):
        calls = dict.fromkeys(names, 0)
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == "gbcd" or n.startswith("gbcd."))]
        for name in names:
            mod_name, fn_name = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"gbcd.{mod_name}"), fn_name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return count
