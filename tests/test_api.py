"""The package's public names, which it imports from their modules on
first use."""

import argparse
import importlib
import subprocess
import sys

import pytest

import interlacepoly
from interlacepoly import cli, interlace


@pytest.mark.parametrize("name", interlacepoly.__all__)
def test_a_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"interlacepoly.{interlacepoly._HOME[name]}")
    value = getattr(interlacepoly, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__
    assert name in dir(interlacepoly)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from interlacepoly import *", namespace)
    assert {name: namespace[name] for name in interlacepoly.__all__} == {
        name: getattr(interlacepoly, name) for name in interlacepoly.__all__}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        interlacepoly.no_such_name
    assert not hasattr(interlacepoly, "no_such_name")


def test_importing_the_package_loads_none_of_its_modules():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, interlacepoly; "
         "print(*sorted(m for m in sys.modules if m.startswith('interlacepoly')))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "interlacepoly\n"


def test_qn_method_choices_are_the_routes():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["qn"]._actions if a.dest == "method")
    assert tuple(method.choices) == interlace.QN_METHODS
