"""README's code must name what the package has.

The ```python blocks run as written, and every backticked `module.name`
whose module is a lurecert submodule resolves in the package, so README
cannot keep naming a deleted function.
"""

import importlib
import pathlib
import pkgutil
import re

import pytest

import lurecert

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCED = re.compile(r"```(\w*)\n(.*?)```", re.S)
SUBMODULES = {m.name for m in pkgutil.iter_modules(lurecert.__path__)}
# backticked spans outside fenced blocks that start with `module.name`
REFERENCES = sorted({m.groups() for span in re.findall(r"`([^`]+)`", FENCED.sub("", README))
                     if (m := re.match(r"(\w+)\.(\w+)", span))
                     and m.group(1) in SUBMODULES})
PYTHON = [body for lang, body in FENCED.findall(README) if lang == "python"]


@pytest.mark.parametrize("code", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_blocks_run(code):
    exec(compile(code, "README.md", "exec"), {})


def test_names_a_submodule_member():
    assert len(REFERENCES) > 10


@pytest.mark.parametrize("module, name", REFERENCES,
                         ids=[f"{m}.{n}" for m, n in REFERENCES])
def test_reference_resolves(module, name):
    assert hasattr(importlib.import_module(f"lurecert.{module}"), name)
