#!/usr/bin/env python3
"""Count the values a user of occsim can set, by introspection.

Three counts, printed with their total:

* fields: dataclass fields of the public classes of every occsim module;
* defaulted: parameters with a default, of the public functions of every
  occsim module and the public methods of its public classes;
* flags: command-line options of every ``occsim`` subcommand, each
  subcommand's counted on its own, ``--help`` left out.

A public name is one without a leading underscore that its module
defines (re-exports are counted where they are defined).

It then lists the public names that occsim's modules define at top level
and that no code outside ``tests/`` uses: not the package's modules,
``scripts/`` or ``perfbench/``.  A name counts as used where it appears
in code as a name, beyond its own definition, or as a ``"module.name"``
string, the form in which perfbench wraps functions.  A local variable
of the same name counts too, so the list may miss a name, never add one.
Run, from any directory, as

    python3 scripts/count_settables.py
"""

import argparse
import ast
import collections
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import occsim  # noqa: E402
from occsim.cli import build_parser  # noqa: E402


def _public(namespace: dict, module: str):
    return [obj for name, obj in namespace.items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module]


def _defaulted(function) -> int:
    parameters = inspect.signature(function).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in parameters)


def count_api() -> tuple[int, int]:
    """(dataclass fields, defaulted parameters) over all occsim modules."""
    fields = defaulted = 0
    for info in pkgutil.iter_modules(occsim.__path__):
        module = importlib.import_module(f"occsim.{info.name}")
        for obj in _public(vars(module), module.__name__):
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    fields += len(dataclasses.fields(obj))
                # getattr binds class- and static methods to plain callables
                methods = {name: getattr(obj, name) for name in vars(obj)}
                for attr in _public(methods, module.__name__):
                    if callable(attr):
                        defaulted += _defaulted(attr)
            elif callable(obj):
                defaulted += _defaulted(obj)
    return fields, defaulted


def count_flags() -> int:
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return sum(1 for parser in subcommands.choices.values()
               for action in parser._actions
               if action.option_strings
               and not isinstance(action, argparse._HelpAction))


def _uses(path: Path):
    """The names a file's code uses, its ``"module.name"`` strings as the
    name, and every word of an f-string (one token before Python 3.12)."""
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type == tokenize.NAME:
                yield token.string
            elif token.type == tokenize.STRING:
                if "f" in re.match(r"\w*", token.string).group().lower():
                    yield from re.findall(r"\w+", token.string)
                elif dotted := re.fullmatch(r"""(["'])\w+\.(\w+)\1""",
                                            token.string):
                    yield dotted.group(2)


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unused_outside_tests() -> list[str]:
    """``module.name`` of every public top-level name of the package that
    only its own definition uses, outside ``tests/``."""
    package = ROOT / "src" / "occsim"
    uses = collections.Counter()
    for folder in (package, ROOT / "scripts", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            uses.update(_uses(path))
    return [f"{path.stem}.{name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_bytes()).body
            for name in _defined(node)
            if not name.startswith("_") and uses[name] <= 1]


def main() -> int:
    fields, defaulted = count_api()
    flags = count_flags()
    print(f"fields {fields}, defaulted parameters {defaulted}, "
          f"flags {flags}: {fields + defaulted + flags} settable values")
    unused = unused_outside_tests()
    print(f"public names only tests use: {', '.join(unused) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
