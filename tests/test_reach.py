"""The reach ledger (``tests/reach.py``): its classes on a planted
package, its entries against ``src/``, and in the slow tier a fresh
census against the committed ``tests/reach.json``."""

import importlib.util
import json

import pytest

from tests import reach

PLANTED = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


def world():
    return Thing().method() + decorated()


@deco
def decorated():
    def inner():
        return 1
    return inner()


class Thing:
    def method(self):
        return 1

    def for_tests(self):
        return 2


class Base:
    def hook(self):
        """Subclasses say."""
        raise NotImplementedError


def example_only():
    return 3


def nowhere():
    return 4
'''


def test_planted_package_is_classified(tmp_path):
    path = tmp_path / "plant" / "mod.py"
    path.parent.mkdir()
    path.write_text(PLANTED)
    index = reach.functions(tmp_path)
    reached = {}
    with reach.recording() as seen:
        spec = importlib.util.spec_from_file_location("reach_plant", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.world()
    reached["world"] = reach.keys_of(seen, index)
    with reach.recording() as seen:
        mod.example_only()
        mod.world()
    reached["example"] = reach.keys_of(seen, index)
    with reach.recording() as seen:
        mod.Thing().for_tests()
        mod.example_only()
    reached["test"] = reach.keys_of(seen, index)

    # a decorated function's code starts at its decorator line
    assert index["plant/mod.py::decorated"]["line"] == 15
    assert {"plant/mod.py::decorated", "plant/mod.py::decorated.<locals>.inner",
            "plant/mod.py::deco.<locals>.wrapper"} <= reached["world"]
    assert reach.classify(index, reached) == {
        "plant/mod.py::Base.hook": "abstract",
        "plant/mod.py::Thing.for_tests": "test",
        "plant/mod.py::example_only": "example",
        "plant/mod.py::nowhere": "unreached",
    }


def test_ledger_names_only_live_functions_none_unreached():
    ledger = json.loads(reach.LEDGER.read_text())
    assert sorted(set(ledger) - set(reach.functions())) == []
    assert sorted(k for k, cls in ledger.items() if cls == "unreached") == []
    assert set(ledger.values()) <= {"example", "test", "abstract"}


@pytest.mark.slow
def test_fresh_census_equals_the_ledger():
    assert reach.census() == json.loads(reach.LEDGER.read_text())
