"""The README's Python example runs, and its code pointers resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qreuse

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
MODULES = sorted(m.name for m in pkgutil.iter_modules(qreuse.__path__))
# ``qreuse.<name>...`` or ``<module>.<name>...``, before any call's arguments.
POINTER = re.compile(rf"(?:qreuse|{'|'.join(MODULES)})(?:\.\w+)+")


def pointers() -> list[str]:
    prose = FENCED.sub("", README)
    spans = (span.split("(")[0] for span in re.findall(r"`([^`]+)`", prose))
    return sorted({span for span in spans if POINTER.fullmatch(span)})


def test_python_example_runs():
    (block,) = [body for language, body in FENCED.findall(README) if language == "python"]
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("pointer", pointers())
def test_code_pointer_resolves(pointer):
    first, *names = pointer.split(".")
    target = qreuse if first == "qreuse" else importlib.import_module(f"qreuse.{first}")
    for name in names:
        target = getattr(target, name)
