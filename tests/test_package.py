import subprocess
import sys
from importlib import import_module

import pytest

import treeauto


def test_every_public_name_is_its_defining_modules_object():
    for name in treeauto.__all__:
        value = getattr(treeauto, name)
        home = import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_dir_star_import_and_unknown_names():
    assert set(treeauto.__all__) <= set(dir(treeauto))
    namespace = {}
    exec("from treeauto import *", namespace)
    assert set(treeauto.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        treeauto.no_such_name
    with pytest.raises(ImportError):
        exec("from treeauto import no_such_name", {})


def test_nucleus_stays_the_function_after_its_module_loads():
    code = (
        "import treeauto.freeness\n"
        "from treeauto import nucleus\n"
        "import treeauto\n"
        "print(callable(nucleus), nucleus is treeauto.nucleus, nucleus.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True treeauto.nucleus\n"


def test_the_nucleus_module_is_patched_through_import_module(monkeypatch):
    # treeauto.nucleus is the function, so an attribute set on it reaches
    # nothing that ball reads; import_module gives the submodule itself
    module = import_module("treeauto.nucleus")
    assert module is not treeauto.nucleus and module.nucleus is treeauto.nucleus
    renumbered, calls = module._renumbered, []

    def counting(*args):
        calls.append(args)
        return renumbered(*args)

    gens = treeauto.entry("grigorchuk").generators
    monkeypatch.setattr(treeauto.nucleus, "_renumbered", counting, raising=False)
    treeauto.ball(gens, 2)
    assert calls == []
    monkeypatch.setattr(module, "_renumbered", counting)
    treeauto.ball(gens, 2)
    assert calls


def test_import_loads_only_nucleus_and_what_it_needs():
    code = (
        "import sys, treeauto\n"
        "print(sorted(m for m in sys.modules if 'treeauto' in m))\n"
        "print(treeauto.schreier.__name__)\n"  # a submodule still reads as an attribute
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = ["treeauto", "treeauto.core", "treeauto.nucleus", "treeauto.words"]
    assert proc.stdout == "%r\ntreeauto.schreier\n" % expected


def test_import_loads_neither_dataclasses_nor_inspect():
    # the reports are records (core.Record), so no module of the package
    # needs dataclasses or the inspect module it imports; a bare interpreter
    # is the baseline, so a site hook that loads either cannot fail this
    code = "import sys%s\nprint(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    loaded = []
    for imports in ("", ", treeauto.cli, treeauto.activity, treeauto.freeness, treeauto.schreier"):
        proc = subprocess.run([sys.executable, "-c", code % imports], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded.append(proc.stdout)
    bare, package = loaded
    assert package == bare
