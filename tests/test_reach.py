"""The commands reach every function of the package.

A table of small command lines runs in process under ``sys.setprofile``
and must enter each module-level function of ``src/switchsim/`` and each
method that the source of a module-level class defines: its
``__post_init__``, its properties, its dunders and its other methods. The
package holds what the commands run; a function that no command enters is
plumbing that nothing reads, and belongs with the tests' references
(``reference.py``) or nowhere.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import switchsim
from switchsim import cli

PACKAGE = Path(switchsim.__file__).parent

#: functions that run only while their module is imported, before any
#: command: ``switch._const`` builds the gate constants and
#: ``sweep._json_row`` the JSON row templates
IMPORT_TIME = {"switch._const", "sweep._json_row"}

#: (argv, exit code): every command, measure, channel kind, noise qubit and
#: format, with and without --compare; a negative float option, which
#: argparse reads only once it is joined to its option; an integral value
#: in JSON, which takes the encoder's text; and an error path
RUNS = [
    (["sweep", "--measure", "schmidt", "--compare", "--a-steps", "2", "--t-steps", "3"], 0),
    (["sweep", "--measure", "ppt", "--compare", "--format", "json", "--t-max", "1",
      "--t-steps", "2"], 0),
    (["sweep", "--measure", "concurrence", "--compare", "--a", "-0.5", "--t-steps", "3"], 0),
    (["sweep", "--measure", "iconcurrence", "--compare", "--t-min", "-1e-5", "--t-steps", "3"], 0),
    (["sweep", "--measure", "entropy", "--compare", "--log-base", "2", "--t-steps", "3"], 0),
    (["sweep", "--measure", "fidelity", "--compare", "--format", "json", "--t-steps", "3"], 0),
    (["sweep", "--measure", "concurrence", "--channel", "PF", "--p", "0.3", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["sweep", "--measure", "iconcurrence", "--channel", "BF", "--compare", "--t-steps", "3"], 0),
    (["sweep", "--measure", "ppt", "--channel", "AD", "--format", "json", "--t-steps", "3"], 0),
    (["sweep", "--measure", "entropy", "--channel", "PD", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["diff", "--measure", "concurrence", "--channel", "AD", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["diff", "--measure", "iconcurrence", "--channel", "PF", "--compare", "--t-steps", "3"], 0),
    (["diff", "--measure", "entropy", "--channel", "BF", "--format", "json", "--t-steps", "3"], 0),
    (["diff", "--measure", "ppt", "--channel", "PD", "--noise-qubit", "1", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "PF", "--compare", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "BF", "--noise-qubit", "1", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "AD", "--compare", "--format", "json", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "PD", "--p", "0.5", "--compare", "--t-steps", "3"], 0),
    (["verify", "--a-steps", "3", "--t-steps", "3"], 0),
    (["verify", "--measure", "entropy", "--log-base", "2", "--a-steps", "2", "--t-steps", "2"], 0),
    (["verify", "--measure", "ppt", "--a-steps", "2", "--t-steps", "2",
      "--inject-error", "1e-6"], 1),
    (["sweep", "--measure", "schmidt", "--channel", "AD", "--t-steps", "3"], 2),
]


def _code(member):
    """The code object of a function, or of a property's getter."""
    return (member.fget if isinstance(member, property) else member).__code__


def _package_functions() -> dict:
    """``module.name`` -> code object of each module-level def of the
    package's source files, and ``module.Class.name`` -> that of each def
    in the body of a module-level class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name,))
            elif isinstance(node, ast.ClassDef):
                defs += [(node.name, item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        # __main__.py, which runs the command when imported, defines none
        if defs:
            module = importlib.import_module(f"switchsim.{path.stem}")
            for names in defs:
                member = getattr(module, names[0])
                if len(names) == 2:
                    member = vars(member)[names[1]]
                found[".".join((path.stem, *names))] = _code(member)
    return found


def test_the_commands_enter_every_package_function():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    exits = []
    # earlier tests of this process have built the parser that main reuses;
    # dropping it makes the first command enter build_parser again
    cli._parser.cache_clear()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in RUNS:
                exits.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert exits == [code for _, code in RUNS]
    functions = _package_functions()
    assert IMPORT_TIME <= set(functions)
    missed = sorted(name for name, code in functions.items()
                    if code not in entered and name not in IMPORT_TIME)
    assert not missed, f"no command enters {missed}"
