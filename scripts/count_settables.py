#!/usr/bin/env python3
"""Count the values a user of occsim can set, by introspection.

Three counts, printed with their total:

* fields: dataclass fields of the public classes of every occsim module;
* defaulted: parameters with a default, of the public functions of every
  occsim module and the public methods of its public classes;
* flags: command-line options of every ``occsim`` subcommand, each
  subcommand's counted on its own, ``--help`` left out.

A public name is one without a leading underscore that its module
defines (re-exports are counted where they are defined).  Run, from any
directory, as

    python3 scripts/count_settables.py
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main() -> int:
    fields, defaulted = count_api()
    flags = count_flags()
    print(f"fields {fields}, defaulted parameters {defaulted}, "
          f"flags {flags}: {fields + defaulted + flags} settable values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
