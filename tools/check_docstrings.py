#!/usr/bin/env python
"""pydocstyle-lite: docstring-presence check for the public surface.

Walks the modules listed in ``CHECKED_MODULES`` and fails (exit 1)
when any public symbol — module, public class, public
function/method, or public property — lacks a docstring.  "Public"
means not underscore-prefixed; private helpers and dunders other than
the module/class themselves are exempt, as are symbols re-exported
from another module (their docstring lives at the definition site).

Run from the repository root::

    PYTHONPATH=src python tools/check_docstrings.py

Wired into CI next to the tier-1 suite, and into the test suite as
``tests/obs/test_docstrings.py`` so a missing docstring fails locally
before it fails in CI.
"""

from __future__ import annotations

import importlib
import inspect
import sys

#: Modules whose public surface must be fully documented: the
#: observability layer plus the engine that hosts it, the stack
#: unwinders and context modules that entrypoint collection runs, and
#: the kernel and LSM layer that hand the engine its operations.
CHECKED_MODULES = [
    "repro.obs",
    "repro.obs.audit",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.firewall.engine",
    "repro.firewall.procstate",
    "repro.parallel",
    "repro.parallel.merge",
    "repro.api",
    "repro.obs.service",
    "repro.service",
    "repro.service.core",
    "repro.service.pool",
    "repro.service.driver",
    "repro.service.wire",
    "repro.workloads.generators",
    "repro.vfs.dcache",
    "repro.proc.stack",
    "repro.proc.interp",
    "repro.firewall.modules.registry",
    "repro.kernel",
    "repro.firewall.context",
    "repro.security.lsm",
]


def _is_local(obj, module):
    """Symbols defined elsewhere are checked at their home module."""
    defined_in = getattr(obj, "__module__", None)
    return defined_in is None or defined_in == module.__name__


def _missing_for_class(cls, module):
    missing = []
    if not inspect.getdoc(cls):
        missing.append("{}.{}".format(module.__name__, cls.__name__))
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        qualified = "{}.{}.{}".format(module.__name__, cls.__name__, name)
        if isinstance(member, property):
            if not inspect.getdoc(member.fget):
                missing.append(qualified)
        elif inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
            if not inspect.getdoc(fn):
                missing.append(qualified)
    return missing


def missing_docstrings(module_names=CHECKED_MODULES):
    """Return the fully-qualified public symbols lacking docstrings."""
    missing = []
    for module_name in module_names:
        module = importlib.import_module(module_name)
        if not inspect.getdoc(module):
            missing.append(module_name)
        for name, member in vars(module).items():
            if name.startswith("_") or not _is_local(member, module):
                continue
            if inspect.isclass(member):
                missing.extend(_missing_for_class(member, module))
            elif inspect.isfunction(member):
                if not inspect.getdoc(member):
                    missing.append("{}.{}".format(module_name, name))
    return missing


def main():
    """CLI entry point: print offenders, exit 1 when any exist."""
    missing = missing_docstrings()
    if missing:
        print("public symbols missing docstrings:")
        for name in missing:
            print("  " + name)
        return 1
    print("docstring check: {} modules clean".format(len(CHECKED_MODULES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
